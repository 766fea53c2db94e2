"""Independent brute-force verifiers for the closed forms.

Nothing in this module shares a formula with the production code it checks:

* :func:`g0_by_quadrature` integrates the Schwinger proper-time (heat-kernel)
  representation G0(E; r) = -int_0^inf (4 pi t)^(-D/2) exp(-r^2/(4t) + E t) dt,
  a Laplace transform of the free Gaussian propagator, with a
  double-exponential trapezoid rule in ``decimal`` arithmetic, checked at two
  precisions to a relative tolerance; production evaluates closed forms
  (exponentials and K0 from its own Bessel series and Chebyshev tables),
  none of which appears here.
* :func:`lattice1d_spectrum` bisects Sturm counts of the second-difference
  Hamiltonian with the delta as a single-site potential lambda/h (its
  resolvent is a Thomas solve), while production roots the eigenvalue
  branches of the N x N matrix M(E) with dense LAPACK.
* :func:`shooting1d` propagates decaying exponentials through the jump
  condition psi'(a+) - psi'(a-) = lambda psi(a), counts states by the nodes
  of psi (Sturm oscillation), and roots the matching coefficient by plain
  bisection (production uses Anderson-Bjorck regula falsi).
* :func:`lattice1d_transmission` solves plane-wave matching on the infinite
  lattice, with its own dispersion relation.
* :func:`norm_by_quadrature` integrates |psi|^2 by the same rule mapped to
  each finite piece (tanh-sinh), while production normalizes the residue
  through dM/dE at the pole.  No oracle imports mpmath.
* :func:`shrinking_well_depth` realizes the contact limit physically: the
  depth a finite spherical well must acquire as its radius shrinks while one
  bound state is held fixed, approaching V0 r0^2 -> (pi/2)^2.

The quadrature oracle is restricted to E < 0, where the proper-time integral
converges; retarded closed forms are instead checked through the
epsilon -> 0+ limit in the greenfn tests.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

import numpy as np

from .errors import (
    CoincidentPointsError,
    DispersionError,
    DomainError,
    IllegalSpecError,
    InsufficientBoxError,
    TailBoundExceededError,
)
from .greenfn import as_kappa_b, as_number, as_scale, check_dim, require_type
from .pointgreen import DeltaCenter
from .renorm import BARE_1D


def __getattr__(name):  # ``mp``, kept readable: perfbench's tracer counts mpmath's integrators through it
    if name == "mp":
        return __import__("mpmath")  # imported on that read only: no oracle imports mpmath
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Lattice1D:
    """Uniform grid on [-L, L] with Dirichlet walls; delta = lambda/h on a site."""

    half_width: float
    points: int

    def __post_init__(self):
        object.__setattr__(self, "half_width",
                           as_scale(self.half_width, "half_width", "a lattice field", "half_width must be positive"))
        points = as_number(self.points, "points", "a lattice field")
        if not (3.0 <= points <= 10**6 and points % 1.0 == 0.0):  # shooting1d's ceiling too
            raise DomainError("need a whole number of grid points from 3 to 10^6", points=self.points)
        object.__setattr__(self, "points", int(self.points))

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)


@dataclass(frozen=True)
class SquareWell3D:
    """Attractive spherical well: V = -depth for r < radius, 0 outside."""

    radius: float
    depth: float

    def __post_init__(self):
        for f in ("radius", "depth"):
            object.__setattr__(self, f, as_scale(getattr(self, f), f, "a well field",
                                                 "radius and depth must be positive"))


#: Tolerance of :func:`g0_by_quadrature`: its two working precisions must
#: agree within half of it.
QUAD_TOL = 1e-10


def g0_by_quadrature(dim: int, energy: float, r: float) -> float:
    """Free Green's function from its proper-time integral, no closed forms.

    For real E < 0 (units hbar = 2m = 1)

        G0(E; r) = -int_0^inf (4 pi t)^(-D/2) exp(-r^2/(4t) + E t) dt,

    the heat kernel of the free Laplacian weighted by exp(E t).  The
    integrand is positive and does not oscillate, so the double-exponential
    trapezoid rule (Takahasi and Mori 1974) resolves it in u, with
    t = c exp(u - e^-u): c = min(r^2/4, r/(2 kappa)), where the Gaussian
    factor switches on or, if that comes later, where exp(E t - r^2/(4t))
    peaks (c = 1/kappa when r = 0).  The result is computed in ``Decimal`` at
    two working precisions, 20 and 30 digits; if they disagree beyond
    QUAD_TOL / 2 relative to the value (absolute where |G0| > 1) a
    :class:`TailBoundExceededError` is raised instead of returning a value.

    Measured range: kappa r up to about 3e5 (G0 long underflowed to -0.0)
    and down to about 1e-33 in D = 1, 2, where the plateau in u, about
    2 ln(2/(kappa r)) long, outgrows DE_REACH; r = 0 in D = 1 at every E.
    Past either end, as at (1, -1e200, 1.0), it raises TailBoundExceededError.
    """
    check_dim(dim, (1, 2, 3), "quadrature oracle covers D in {1,2,3}")
    energy = as_number(energy, "energy", "an energy")
    r = as_number(r, "r", "a separation")
    if not (energy < 0.0) or not math.isfinite(energy):
        raise DomainError("quadrature oracle needs real E < 0", energy=energy)
    if r < 0.0:
        raise DomainError("separation must be nonnegative", r=r)
    if not r < math.inf:
        raise DomainError("separation must be finite", r=r)
    if dim != 1 and r < 1e-14:
        raise CoincidentPointsError("coincident points diverge for D >= 2", dim=dim)

    big = _g0_quad_at(dim, energy, r, 20)
    bigger = _g0_quad_at(dim, energy, r, 30)
    if abs(big - bigger) > 0.5 * QUAD_TOL * min(1.0, abs(bigger)):
        raise TailBoundExceededError(
            "quadrature did not converge within the requested tolerance",
            estimate=abs(big - bigger),
            tol=QUAD_TOL,
        )
    return float(bigger)


#: Budget of the double-exponential rule: step halvings after h = 1, and
#: the largest |u| a side's walk may reach before its terms are negligible.
DE_LEVELS = 12
DE_REACH = 160


def _de_rule(term, dps: int, num):
    """int term(u) du over the real line, term >= 0 decaying like exp(-e^|u|),
    by the double-exponential trapezoid rule (Takahasi and Mori 1974) in the
    number type ``num``, ``Decimal`` (in the caller's context) or ``float``, to
    ``dps`` digits.  Steps h = 2^-k halve on nested grids, each level adding
    only the odd nodes.  Each side's walk stops at a term below 10^-dps of the
    sum and no larger than the one before; the rule stops once the relative
    change between levels is below 10^(-dps/2), unsquared so no float leaves
    the doubles.  Out of DE_REACH or DE_LEVELS: TailBoundExceededError."""
    eps, tol, inf = num(10) ** -dps, num(10) ** num(-dps / 2), num("inf")

    def walk(first, stride):
        """Sum the terms at first, first + stride, ... until negligible."""
        nonlocal total
        u, last = first, 0
        while abs(u) <= DE_REACH:
            g = term(u)
            total += g
            if g <= eps * total < inf and g <= last:  # an infinite sum never settles
                return
            u, last = u + stride, g
        raise TailBoundExceededError(
            "double-exponential rule: tail not negligible within its reach",
            reach=DE_REACH, dps=dps,
        )

    total = term(num(0))
    h = num(1)
    walk(h, h)
    walk(-h, -h)
    level = h * total
    for _ in range(DE_LEVELS):
        h /= 2
        walk(h, 2 * h)
        walk(-h, -2 * h)
        level, prev = h * total, level
        if abs(level - prev) <= tol * level:
            return level
    raise TailBoundExceededError(
        "double-exponential rule: levels did not converge",
        levels=DE_LEVELS, dps=dps,
    )


def _g0_quad_at(dim: int, energy: float, r: float, dps: int) -> float:
    """The proper-time integral in ``Decimal`` at ``dps`` digits: :func:`_de_rule`
    over u, with t = c exp(u - e^-u), dt = t (1 + e^-u) du, and q = r^2/4.  A zero
    sum (every term below 10^-(10^18)) is refused as levels that did not converge."""
    with localcontext(Context(prec=dps, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])):
        e = Decimal(energy)
        q = Decimal(r) ** 2 / 4
        c = min(q, (q / -e).sqrt()) if r > 0.0 else -1 / e
        k = 1 / (4 * Decimal("3.141592653589793238462643383279502884197169399375105820974944592"))

        def term(u):
            x = (-u).exp()
            t = c * (u - x).exp()
            kernel_t = (k * t).sqrt() if dim == 1 else k if dim == 2 else k * (k / t).sqrt()
            return (e * t - q / t).exp() * kernel_t * (1 + x)

        total = _de_rule(term, dps, Decimal)
    if not total:
        raise TailBoundExceededError("double-exponential rule: levels did not converge", levels=DE_LEVELS, dps=dps)
    return float(-total)


def norm_by_quadrature(psi, points) -> float:
    """int psi(x)^2 dx from points[0] to points[-1], split at each point (put
    psi's kinks there), in ``float``: :func:`_de_rule` at 15 digits on each
    piece [a, b] under x = m + d tanh(s), s = (pi/2) sinh u, with m and d its
    midpoint and half-width.  x is the nearer end -+ 2 d q / (1 + q),
    q = e^(-2|s|), so nodes crowding an end keep their digits; tanh and the
    weight come from exponentials.  The points must be finite and increasing."""
    ends = [as_number(p, "points", "a split point")
            for p in require_type(points, Iterable, "points", "points must be a list of numbers")]
    if len(ends) < 2 or not all(-math.inf < a < b < math.inf for a, b in zip(ends, ends[1:])):
        raise DomainError("need two or more finite, increasing points", points=ends)
    half_pi = math.pi / 2

    def piece(a, b):
        d = (b - a) / 2

        def term(u):
            v = math.exp(u)
            w = 1 / v
            q = math.exp(-half_pi * abs(v - w))
            p = 1 + q
            off = 2 * d * q / p
            y = psi(b - off if u > 0 else a + off)
            return y * y * half_pi * (v + w) * off / p  # y * y: inf, not OverflowError

        return _de_rule(term, 15, float)

    return float(sum(piece(a, b) for a, b in zip(ends, ends[1:])))


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


def _lattice_hamiltonian(centers, lat: Lattice1D) -> tuple[list[float], float]:
    """Site potentials v and hopping t of H = t (2 - S) + diag(v), S the sum
    of the one-site shifts: t = 1/h^2, and a center adds lambda/h at its site."""
    sites = _require_bare(centers)
    h = lat.h
    v = [0.0] * lat.points
    for pos, lam in sites:
        if (idx := _site(pos, lat)) is None:
            raise DomainError("center outside the lattice box", position=pos)
        v[idx] += lam / h
    return v, 1.0 / (h * h)


def _site(x: float, lat: Lattice1D) -> int | None:
    """Index of the grid point nearest x, or None for an x outside the box."""
    s = (x + lat.half_width) / lat.h
    i = round(s) if -1.0 < s < lat.points else -1  # round raises on inf and NaN
    return i if 0 <= i < lat.points else None


def _sturm_count(v: list[float], t: float, x: float, stop: float = math.inf) -> int:
    """Eigenvalues of H below x, up to stop + 1: the negative pivots t + r of
    H - x = L D L^T, r_i = v_i - x + t r_(i-1) / (t + r_(i-1)); x meets numbers
    of size kappa/h in r rather than 2/h^2 in the pivot, and so keeps its bits."""
    below, r = 0, math.inf  # the first pivot has no predecessor: t r/(t + r) = t
    for vi in v:
        try:
            r = vi - x + t / (1.0 + t / r)
        except ZeroDivisionError:  # r = 0 adds 0; after a zero pivot the next is -inf
            r = vi - x if r == 0.0 else -math.inf
        if r < -t:
            below += 1
            if below > stop:
                break
    return below


def _thomas(v: list[float], t: float, shift: float, rhs) -> list[float]:
    """(H - shift)^-1 rhs by the Thomas algorithm.  Its pivots are those of
    :func:`_sturm_count`, bit for bit: all positive where it counts 0."""
    r, q, y, rows = math.inf, math.inf, 0.0, []
    for vi, b in zip(v, rhs):
        y = b + t * y / q
        r = vi - shift + (t / (1.0 + t / r) if r else 0.0)
        q = t + r
        if q == 0.0:
            raise DomainError("zero pivot in the lattice solve", shift=shift)
        rows.append((q, y))
    u = [0.0]  # u_(n+1), then back substitution from u_n to u_1
    for q, y in reversed(rows):
        u.append((y + t * u[-1]) / q)
    return u[:0:-1]


def lattice1d_spectrum(centers, lat: Lattice1D, n_states: int) -> list[float]:
    """Lowest eigenvalues of the discretized 1D Hamiltonian, ascending.

    Each is bisected on the Sturm count to adjacent doubles, as LAPACK's
    dstebz does (Barth, Martin and Wilkinson, Numer. Math. 9 (1967) 386).
    The box must hold the bound states: if the ground eigenfunction (one
    inverse iteration a double below the lowest eigenvalue) keeps more than
    1e-6 of its peak amplitude at a wall, :class:`InsufficientBoxError` is raised.
    """
    if lat.points % 2 == 0:
        raise DomainError("use an odd point count so a grid point sits at 0")
    if n_states < 1 or n_states > lat.points:
        raise DomainError("n_states out of range", n_states=n_states)
    v, t = _lattice_hamiltonian(centers, lat)
    vals, lo, hi = [], min(v), max(v) + 4.0 * t  # Gershgorin: the spectrum lies inside
    for k in range(n_states):
        vals.append(_bisect(lambda x: k + 0.5 - _sturm_count(v, t, x, k), lo, hi))  # k + 1 pivots fix the sign
        lo = math.nextafter(vals[-1], -math.inf)  # at most k + 1 eigenvalues below
    # Perron-Frobenius: the ground state has no node, so a constant overlaps it
    ground = np.abs(_thomas(v, t, math.nextafter(vals[0], -math.inf), [1.0] * lat.points))
    if max(ground[0], ground[-1]) > 1e-6 * ground.max():
        raise InsufficientBoxError(
            "ground state leaks to the box boundary; enlarge half_width",
            boundary_amplitude=float(max(ground[0], ground[-1]) / ground.max()),
        )
    return vals


def lattice1d_resolvent(centers, lat: Lattice1D, energy: float, xi: float, xj: float) -> float:
    """Lattice (E - H)^(-1) kernel at the grid points nearest xi, xj.

    Solves (H - E) u = delta/h by the Thomas algorithm and returns -u at the
    target site, matching the sign convention of the continuum kernel.
    """
    energy = as_number(energy, "energy", "an energy")
    xi, xj = as_number(xi, "xi", "a lattice point"), as_number(xj, "xj", "a lattice point")
    if not (energy < 0.0):
        raise DomainError("lattice resolvent implemented for E < 0", energy=energy)
    v, t = _lattice_hamiltonian(centers, lat)
    i, j = _site(xi, lat), _site(xj, lat)
    if i is None or j is None:
        raise DomainError("evaluation point outside the box", xi=xi, xj=xj)
    rhs = [0.0] * lat.points
    rhs[j] = 1.0 / lat.h
    return -_thomas(v, t, energy, rhs)[i]


def shooting1d(centers, kappa_bracket: tuple[float, float], grid_points: int = 1200) -> list[float]:
    """kappa = sqrt(-E) of every 1D bound state, by exponential shooting.

    Starting from a pure decaying exponential on the far left, each center
    applies the derivative jump lambda psi(a); a bound state is a kappa where
    the growing-mode coefficient on the far right vanishes.  The same pass
    counts the states below -kappa^2 by Sturm oscillation: the nodes of psi,
    one between centers where psi changes sign and one past the last center
    where the growing coefficient's sign differs from psi there.  A grid cell
    whose count drops by two or more is halved until each part holds one
    state; each state is then polished by bisection.
    """
    sites = sorted(_require_bare(centers))
    pair = require_type(kappa_bracket, Iterable, "kappa_bracket", "kappa_bracket must be a pair of numbers")
    if len(pair := [as_number(k, "kappa_bracket", "a momentum") for k in pair]) != 2:
        raise IllegalSpecError("kappa_bracket must be a pair of numbers", size=len(pair))
    lo, hi = pair
    if not (0.0 < lo < hi < math.inf):
        raise DomainError("need 0 < kappa_min < kappa_max < inf", lo=lo, hi=hi)
    if not 2 <= (grid_points := as_number(grid_points, "grid_points", "a grid size")) <= 10**6 or grid_points % 1:
        raise DomainError("grid_points must be a whole number from 2 to 10^6", grid_points=grid_points)

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

    grid = np.linspace(lo, hi, int(grid_points)).tolist()
    shots = [shoot(k) for k in grid]
    cells = [
        (grid[i], grid[i + 1], shots[i], shots[i + 1])
        for i in range(len(grid) - 1)
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
            roots.append(_bisect(lambda k: shoot(k)[0], a, b))
    return sorted(roots)


def _bisect(f, a: float, b: float) -> float:
    """A sign change of f in [a, b], where f(a) and f(b) differ in sign.

    Halves the bracket until its midpoint equals one of its ends, so the
    result and its neighbouring double bracket the change.
    """
    neg_a = f(a) < 0.0
    while a < (mid := 0.5 * a + 0.5 * b) < b:  # halves first: a + b may overflow
        a, b = (mid, b) if (f(mid) < 0.0) == neg_a else (a, mid)
    return mid


def lattice1d_transmission(lam: float, k: float, lat: Lattice1D) -> tuple[float, float]:
    """(T, R) for a single-site potential lambda/h on the infinite lattice.

    Plane-wave matching with the lattice dispersion cos(qh) = 1 - k^2 h^2/2
    gives t = 2i k_eff / (2i k_eff - lambda) with k_eff = sin(qh)/h, an exact
    lattice result that approaches the continuum at O((kh)^2).
    """
    lam = as_number(lam, "lam", "a coupling")
    if not math.isfinite(lam):
        raise DomainError("coupling must be finite", lam=lam)
    k = as_scale(k, "k", "a momentum", "momentum must be positive")
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
    kb = as_kappa_b(e_b)
    r0 = as_number(r0, "r0", "a well radius")
    if not (0.0 < r0 < 1.0 / kb):
        raise DomainError(
            "deep-well regime needs 0 < r0 < 1/kappa_B", r0=r0, kappa_b=kb
        )

    def match(w: float) -> float:  # u = q r0 = pi/2 + w, cot u = -tan w
        return -(0.5 * math.pi + w) / r0 * math.tan(w) + kb

    # match(0) = kappa_B > 0 and match -> -inf as w -> pi/2: the bracket
    # changes sign for every r0, and w resolves roots near u = pi/2
    u_star = 0.5 * math.pi + _bisect(match, 0.0, 0.5 * math.pi * (1.0 - 1e-12))
    q = u_star / r0
    depth = q * q + kb * kb
    if not depth < math.inf:
        raise DomainError("well depth overflows the doubles", r0=r0)
    return depth


def square_well_radial(well: SquareWell3D, e_b: float, r: float) -> float:
    """Unnormalized radial bound wavefunction psi(r) of the finite well.

    sin(qr)/r inside, matched decaying exponential outside; used to check
    that outside the core the shape is exactly the contact-potential one.
    """
    kb = as_kappa_b(e_b)
    r = as_number(r, "r", "a radius")
    if not r > 0.0:
        raise DomainError("radius must be positive", r=r)
    if kb * kb > well.depth:
        raise DomainError("bound state below the bottom of the well", kappa_b=kb, depth=well.depth)
    q = math.sqrt(well.depth - kb * kb)
    if r <= well.radius:
        return math.sin(q * r) / r
    amp = math.sin(q * well.radius) * math.exp(kb * well.radius)
    return amp * math.exp(-kb * r) / r
