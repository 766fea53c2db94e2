"""Independent brute-force verifiers for the closed forms.

Nothing in this module shares a formula with the production code it checks:

* :func:`g0_by_quadrature` integrates the Schwinger proper-time (heat-kernel)
  representation G0(E; r) = -int_0^inf (4 pi t)^(-D/2) exp(-r^2/(4t) + E t) dt,
  a Laplace transform of the free Gaussian propagator, with arbitrary-precision
  tanh-sinh quadrature; production evaluates closed forms (exponentials and
  K0 from its own Bessel series and Chebyshev tables), none of which appears
  here.
* :func:`lattice1d_spectrum` diagonalizes the second-difference Hamiltonian
  with the delta as a single-site potential lambda/h, while production roots
  the eigenvalue branches of the N x N matrix M(E).
* :func:`shooting1d` propagates decaying exponentials through the jump
  condition psi'(a+) - psi'(a-) = lambda psi(a), counts states by the nodes
  of psi (Sturm oscillation), and roots the matching coefficient with a
  library bracketing solver (production uses its own).
* :func:`lattice1d_transmission` solves plane-wave matching on the infinite
  lattice, with its own dispersion relation.
* :func:`shrinking_well_depth` realizes the contact limit physically: the
  depth a finite spherical well must acquire as its radius shrinks while one
  bound state is held fixed, approaching V0 r0^2 -> (pi/2)^2.

The quadrature oracle is restricted to E < 0, where the proper-time integral
converges; retarded closed forms are instead checked through the
epsilon -> 0+ limit in the greenfn tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import (
    BranchAmbiguityError,
    CoincidentPointsError,
    DispersionError,
    DomainError,
    IllegalSpecError,
    InsufficientBoxError,
    NonConvergenceError,
    TailBoundExceededError,
    UnsupportedDimError,
)
from .pointgreen import DeltaCenter
from .renorm import BARE_1D

# scipy is imported inside the oracles that use it, so a CLI call that runs
# none of them starts without loading it (about 0.2 s)


@dataclass(frozen=True)
class Lattice1D:
    """Uniform grid on [-L, L] with Dirichlet walls; delta = lambda/h on a site."""

    half_width: float
    points: int

    def __post_init__(self):
        if not (self.half_width > 0.0) or not math.isfinite(self.half_width):
            raise DomainError("half_width must be positive", half_width=self.half_width)
        if int(self.points) != self.points or self.points < 3:
            raise DomainError("need at least 3 grid points", points=self.points)
        object.__setattr__(self, "points", int(self.points))

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    def grid(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.points)


@dataclass(frozen=True)
class SquareWell3D:
    """Attractive spherical well: V = -depth for r < radius, 0 outside."""

    radius: float
    depth: float

    def __post_init__(self):
        if not (self.radius > 0.0 and self.depth > 0.0):
            raise DomainError(
                "radius and depth must be positive",
                radius=self.radius,
                depth=self.depth,
            )


def g0_by_quadrature(dim: int, energy: float, r: float, tol: float = 1e-10) -> float:
    """Free Green's function from its proper-time integral, no closed forms.

    For real E < 0 (units hbar = 2m = 1)

        G0(E; r) = -int_0^inf (4 pi t)^(-D/2) exp(-r^2/(4t) + E t) dt,

    the heat kernel of the free Laplacian weighted by exp(E t).  The
    integrand is positive and does not oscillate, so plain tanh-sinh
    quadrature (``mp.quad``) resolves it, split at t = r^2/4, where the
    Gaussian factor switches on (at t = 1 when r = 0).  The result is
    computed at two working precisions; if they disagree beyond tol/2 a
    :class:`TailBoundExceededError` is raised instead of returning a value.
    """
    if dim not in (1, 2, 3):
        raise UnsupportedDimError("quadrature oracle covers D in {1,2,3}", dim=dim)
    energy = float(energy)
    r = float(r)
    if not (energy < 0.0) or not math.isfinite(energy):
        raise DomainError("quadrature oracle needs real E < 0", energy=energy)
    if r < 0.0:
        raise DomainError("separation must be nonnegative", r=r)
    if dim >= 2 and r < 1e-14:
        raise CoincidentPointsError("coincident points diverge for D >= 2", dim=dim)
    if tol < 1e-10:
        raise DomainError("tolerances below 1e-10 are not offered", tol=tol)

    big = _g0_quad_at(dim, energy, r, 20)
    bigger = _g0_quad_at(dim, energy, r, 30)
    if abs(big - bigger) > 0.5 * tol:
        raise TailBoundExceededError(
            "quadrature did not converge within the requested tolerance",
            estimate=abs(big - bigger),
            tol=tol,
        )
    return float(bigger)


def _g0_quad_at(dim: int, energy: float, r: float, dps: int) -> float:
    with mp.workdps(dps):
        e = mp.mpf(energy)
        q = mp.mpf(r) ** 2 / 4
        half_dim = mp.mpf(dim) / 2
        val = mp.quad(
            lambda t: mp.exp(e * t - q / t) / (4 * mp.pi * t) ** half_dim,
            [0, q if r > 0.0 else 1, mp.inf],
        )
        return float(-val)


def _require_bare(centers) -> list[tuple[float, float]]:
    out = []
    for c in centers:
        if not isinstance(c, DeltaCenter) or c.coupling.variant != BARE_1D:
            raise IllegalSpecError(
                "1D oracles take bare couplings only",
                variant=getattr(getattr(c, "coupling", None), "variant", None),
            )
        out.append((c.position.coords[0], c.coupling.lam))
    return out


def _lattice_hamiltonian(centers, lat: Lattice1D) -> tuple[np.ndarray, np.ndarray]:
    sites = _require_bare(centers)
    h = lat.h
    n = lat.points
    diag = np.full(n, 2.0 / (h * h))
    off = np.full(n - 1, -1.0 / (h * h))
    for pos, lam in sites:
        idx = int(round((pos + lat.half_width) / h))
        if idx < 0 or idx >= n:
            raise DomainError("center outside the lattice box", position=pos)
        diag[idx] += lam / h
    return diag, off


def lattice1d_spectrum(centers, lat: Lattice1D, n_states: int) -> list[float]:
    """Lowest eigenvalues of the discretized 1D Hamiltonian, ascending.

    The box must hold the bound states: if the ground eigenfunction keeps
    more than 1e-6 of its peak amplitude at a wall,
    :class:`InsufficientBoxError` is raised.
    """
    if lat.points % 2 == 0:
        raise DomainError("use an odd point count so a grid point sits at 0")
    if n_states < 1 or n_states > lat.points:
        raise DomainError("n_states out of range", n_states=n_states)
    from scipy.linalg import eigh_tridiagonal

    diag, off = _lattice_hamiltonian(centers, lat)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_states - 1))
    ground = np.abs(vecs[:, 0])
    if max(ground[0], ground[-1]) > 1e-6 * ground.max():
        raise InsufficientBoxError(
            "ground state leaks to the box boundary; enlarge half_width",
            boundary_amplitude=float(max(ground[0], ground[-1]) / ground.max()),
        )
    return [float(v) for v in vals]


def lattice1d_resolvent(centers, lat: Lattice1D, energy: float, xi: float, xj: float) -> float:
    """Lattice (E - H)^(-1) kernel at the grid points nearest xi, xj.

    Solves the banded system (H - E) u = delta/h and returns -u at the
    target site, matching the sign convention of the continuum kernel.
    """
    energy = float(energy)
    if not (energy < 0.0):
        raise DomainError("lattice resolvent implemented for E < 0", energy=energy)
    diag, off = _lattice_hamiltonian(centers, lat)
    h = lat.h
    n = lat.points
    j = int(round((xj + lat.half_width) / h))
    i = int(round((xi + lat.half_width) / h))
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError("evaluation point outside the box", xi=xi, xj=xj)
    rhs = np.zeros(n)
    rhs[j] = 1.0 / h
    ab = np.zeros((3, n))
    ab[0, 1:] = off
    ab[1, :] = diag - energy
    ab[2, :-1] = off
    from scipy.linalg import solve_banded

    sol = solve_banded((1, 1), ab, rhs)
    return float(-sol[i])


def shooting1d(centers, kappa_bracket: tuple[float, float], grid_points: int = 1200) -> list[float]:
    """kappa = sqrt(-E) of every 1D bound state, by exponential shooting.

    Starting from a pure decaying exponential on the far left, each center
    applies the derivative jump lambda psi(a); a bound state is a kappa where
    the growing-mode coefficient on the far right vanishes.  The same pass
    counts the states below -kappa^2 by Sturm oscillation: the nodes of psi,
    one between centers where psi changes sign and one past the last center
    where the growing coefficient's sign differs from psi there.  A grid cell
    whose count drops by two or more is halved until each part holds one
    state; each state is then polished with a library solver.
    """
    sites = sorted(_require_bare(centers))
    lo, hi = float(kappa_bracket[0]), float(kappa_bracket[1])
    if not (0.0 < lo < hi < math.inf):
        raise DomainError("need 0 < kappa_min < kappa_max < inf", lo=lo, hi=hi)
    from scipy.optimize import brentq

    def shoot(kap: float) -> tuple[float, int]:
        # psi = A e^{k(x-p)} + B e^{-k(x-p)} about the last center p, scaled
        # by a positive factor at each center so max(|A|, |B|) = 1: no
        # exponent exceeds kappa times one gap, and scaling keeps every sign
        a_coef, b_coef = 1.0, 0.0
        nodes, psi, p = 0, 1.0, -math.inf  # psi = e^{k(x - a_1)} left of a_1
        for pos, lam in sites:
            shrink = math.exp(-2.0 * kap * (pos - p))  # e^{kd} divided out
            prev, psi = psi, a_coef + b_coef * shrink
            nodes += (psi < 0.0) != (prev < 0.0)
            a_coef += lam * psi / (2.0 * kap)
            b_coef = b_coef * shrink - lam * psi / (2.0 * kap)
            norm = max(abs(a_coef), abs(b_coef)) or 1.0  # 0: psi vanished in doubles
            if not norm < math.inf:
                raise DomainError("shooting coefficients leave the double range", kappa=kap)
            a_coef, b_coef, p = a_coef / norm, b_coef / norm, pos
        return a_coef, nodes + ((a_coef < 0.0) != (psi < 0.0))

    grid = np.linspace(lo, hi, grid_points).tolist()
    shots = [shoot(k) for k in grid]
    cells = [
        (grid[i], grid[i + 1], shots[i], shots[i + 1])
        for i in range(grid_points - 1)
        if shots[i][1] > shots[i + 1][1]
    ]
    roots = []
    while cells:
        a, b, (fa, na), (fb, nb) = cells.pop()
        mid = 0.5 * (a + b)
        if na - nb >= 2 and a < mid < b:
            shot = shoot(mid)
            halves = [(a, mid, (fa, na), shot), (mid, b, shot, (fb, nb))]
            cells += [cell for cell in halves if cell[2][1] > cell[3][1]]
        elif fa == 0.0 or fb == 0.0 or na - nb >= 2:
            roots += [float(a if fa == 0.0 else b if fb == 0.0 else mid)] * (na - nb)
        else:
            try:
                roots.append(float(brentq(lambda k: shoot(k)[0], a, b, xtol=1e-13)))
            except (RuntimeError, ValueError) as exc:
                raise NonConvergenceError(
                    "library root polish failed", a=float(a), b=float(b)
                ) from exc
    return sorted(roots)


def lattice1d_transmission(lam: float, k: float, lat: Lattice1D) -> tuple[float, float]:
    """(T, R) for a single-site potential lambda/h on the infinite lattice.

    Plane-wave matching with the lattice dispersion cos(qh) = 1 - k^2 h^2/2
    gives t = 2i k_eff / (2i k_eff - lambda) with k_eff = sin(qh)/h, an exact
    lattice result that approaches the continuum at O((kh)^2).
    """
    lam = float(lam)
    k = float(k)
    if not (k > 0.0):
        raise DomainError("momentum must be positive", k=k)
    h = lat.h
    if k * h > 0.1:
        raise DispersionError("kh > 0.1: lattice dispersion too coarse", kh=k * h)
    if lam == 0.0:
        return 1.0, 0.0
    qh = math.acos(1.0 - 0.5 * k * k * h * h)
    k_eff = math.sin(qh) / h
    t_amp = 2j * k_eff / (2j * k_eff - lam)
    t = abs(t_amp) ** 2
    return t, 1.0 - t


def shrinking_well_depth(e_b: float, r0: float) -> float:
    """Depth V0 a spherical well of radius r0 needs to bind exactly at E_B.

    Solves the s-wave matching q cot(q r0) = -kappa_B on the first branch
    (q r0 between pi/2 and pi), with q = sqrt(V0 - kappa_B^2).  As r0 -> 0
    the dimensionless product V0 r0^2 tends to (pi/2)^2: the physical face
    of the running coupling.
    """
    e_b = float(e_b)
    r0 = float(r0)
    if not (e_b < 0.0) or not math.isfinite(e_b):
        raise DomainError("bound-state energy must be negative", e_b=e_b)
    kb = math.sqrt(-e_b)
    if not (0.0 < r0 < 1.0 / kb):
        raise DomainError(
            "deep-well regime needs 0 < r0 < 1/kappa_B", r0=r0, kappa_b=kb
        )

    def match(u: float) -> float:
        return (u / r0) * math.cos(u) / math.sin(u) + kb

    lo = 0.5 * math.pi * (1.0 + 1e-12)
    hi = math.pi * (1.0 - 1e-12)
    flo, fhi = match(lo), match(hi)
    if not (flo > 0.0 > fhi):
        raise BranchAmbiguityError(
            "first-branch bracket failed", f_lo=flo, f_hi=fhi
        )
    from scipy.optimize import brentq

    try:
        u_star = brentq(match, lo, hi, xtol=1e-14)
    except (RuntimeError, ValueError) as exc:
        raise NonConvergenceError("well-depth root polish failed") from exc
    q = u_star / r0
    return q * q + kb * kb


def square_well_radial(well: SquareWell3D, e_b: float, r: float) -> float:
    """Unnormalized radial bound wavefunction psi(r) of the finite well.

    sin(qr)/r inside, matched decaying exponential outside; used to check
    that outside the core the shape is exactly the contact-potential one.
    """
    e_b = float(e_b)
    r = float(r)
    if not (e_b < 0.0):
        raise DomainError("bound-state energy must be negative", e_b=e_b)
    if r <= 0.0:
        raise DomainError("radius must be positive", r=r)
    kb = math.sqrt(-e_b)
    q = math.sqrt(well.depth - kb * kb)
    if r <= well.radius:
        return math.sin(q * r) / r
    amp = math.sin(q * well.radius) * math.exp(kb * well.radius)
    return amp * math.exp(-kb * r) / r
