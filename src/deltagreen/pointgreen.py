"""Full Green's function for one or many delta centers; bound states; residues.

One attractive center at the origin gives the exact resolvent

    G(E; x, y) = G0(E; x, y) + G0(E; x, 0) G0(E; 0, y) / D(E),

with D(E) the renormalized denominator from :mod:`deltagreen.renorm`.  For N
centers a_1..a_N the correction generalizes to a small linear solve:

    G = G0(x, y) + sum_ij G0(x, a_i) [M^-1]_ij G0(a_j, y),
    M_ii = D_i(E),      M_ij = -G0(E; a_i, a_j)   (i != j).

M is complex symmetric (real symmetric on the negative real axis).  Bound
states are the real E < 0 where det M vanishes; the residue of G there
factorizes as psi(x) psi(y) with

    psi(x) = sum_i c_i G0(E_B; x, a_i),     c = v / sqrt(v . M'(E_B) v),

where v is the null vector of M(E_B) and M' = dM/dE is evaluated by a
complex-step derivative (exact to machine precision).  The sign of psi is
fixed to be positive at the centroid of the centers; when the centroid value
vanishes (odd states) or is not evaluable (a center itself in D >= 2), the
probe moves along the first axis in small deterministic steps and the
largest-magnitude probe fixes the sign instead.

Renormalization never touches the off-diagonal entries: G0(a_i, a_j) is
finite for distinct centers, so each center carries its own coupling and
only the diagonal is renormalized.  Centers closer than 1e-10 are rejected
rather than merged, since merging would silently change how many couplings
get renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AtPoleError,
    DeltaGreenError,
    DomainError,
    IllegalSpecError,
    NonConvergenceError,
)
from .greenfn import ComplexEnergy, GreenValue, SpatialPoint, g0, g0_kernel, g0_of_kappa
from .renorm import (
    BARE_1D,
    CouplingConstants,
    CouplingSpec,
    coupling_constants,
    renormalized_denominator,  # noqa: F401  kept bound: perfbench's tracer wraps this name
    renormalized_denominators,
)
from .rootfind import bracket_sign_changes, refine_root

#: Relative |det M| below which an evaluation counts as sitting on a pole.
DET_POLE_TOL = 1e-12

#: Centers closer than this are rejected as coincident.
CENTER_DISTINCT_TOL = 1e-10

#: Matrix entries assembled per batch of scan energies.
SCAN_BATCH = 1 << 16


@dataclass(frozen=True)
class DeltaCenter:
    """A point interaction: position plus its coupling."""

    position: SpatialPoint
    coupling: CouplingSpec

    def __post_init__(self):
        self.coupling.require_dim(self.position.dim)


def center(position, coupling: CouplingSpec) -> DeltaCenter:
    """Convenience constructor; ``position`` may be a number, tuple or point."""
    if isinstance(position, SpatialPoint):
        pos = position
    elif isinstance(position, (int, float)):
        pos = SpatialPoint.of(float(position))
    else:
        pos = SpatialPoint(tuple(position))
    return DeltaCenter(position=pos, coupling=coupling)


@dataclass(frozen=True, eq=False)
class MMatrix:
    """Snapshot of the N x N matrix whose zero eigenvalues mark bound states."""

    entries: np.ndarray
    dim: int
    energy: ComplexEnergy

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class BoundState:
    """A bound state: energy, the centers that bind it, and the residue vector."""

    energy: float
    dim: int
    centers: tuple[DeltaCenter, ...]
    residue_vector: np.ndarray = field(repr=False)

    @property
    def kappa(self) -> float:
        return math.sqrt(-self.energy)


def _validate_centers(dim: int, centers) -> tuple[tuple[DeltaCenter, ...], np.ndarray]:
    """The centers as a tuple, and their positions as an (N, dim) array."""
    cs = tuple(centers)
    if not cs:
        raise IllegalSpecError("at least one center required")
    for c in cs:
        if c.position.dim != dim:
            raise IllegalSpecError(
                "center dimension mismatch", dim=dim, center_dim=c.position.dim
            )
        c.coupling.require_dim(dim)
    return cs, _positions(cs)


def _positions(cs) -> np.ndarray:
    return np.array([c.position.coords for c in cs], dtype=float)


def _pair_distances(pos: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Index pairs i < j (row-major) and |a_i - a_j| for each."""
    pairs = np.triu_indices(len(pos), 1)
    r = np.sqrt(sum((c[pairs[0]] - c[pairs[1]]) ** 2 for c in pos.T))
    close = np.flatnonzero(r < CENTER_DISTINCT_TOL)
    if close.size:
        raise IllegalSpecError(
            "coincident centers (closer than 1e-10) are one center",
            i=int(pairs[0][close[0]]),
            j=int(pairs[1][close[0]]),
        )
    return pairs, r


def _matrices(off: np.ndarray, diag: np.ndarray, pairs) -> np.ndarray:
    """Symmetric M: -off at each pair (i, j) and (j, i), diag on the diagonal.

    Leading axes of ``off`` (..., pairs) and ``diag`` (..., N) batch matrices.
    """
    n = diag.shape[-1]
    m = np.empty(diag.shape + (n,), dtype=np.result_type(off, diag))
    neg = -off
    m[..., pairs[0], pairs[1]] = neg
    m[..., pairs[1], pairs[0]] = neg
    idx = np.arange(n)
    m[..., idx, idx] = diag
    return m


def _couplings(dim: int, cs) -> CouplingConstants:
    return coupling_constants(dim, [c.coupling for c in cs])


def _assemble(
    dim: int, e: ComplexEnergy, consts: CouplingConstants, pairs, r: np.ndarray
) -> np.ndarray:
    """M(E) from the pair distances and coupling constants: one kernel call
    fills the off-diagonal, one denominator call the diagonal."""
    return _matrices(g0_kernel(dim, e, r), renormalized_denominators(e.kappa, consts), pairs)


def m_matrix(dim: int, energy, centers) -> MMatrix:
    """Assemble M(E): renormalized denominators on the diagonal, -G0 off it."""
    e = ComplexEnergy.of(energy)
    cs, pos = _validate_centers(dim, centers)
    pairs, r = _pair_distances(pos)
    m = _assemble(dim, e, _couplings(dim, cs), pairs, r)
    m.setflags(write=False)
    return MMatrix(entries=m, dim=dim, energy=e)


def _det_scale(m: np.ndarray) -> float:
    """Hadamard-style scale: product of row maxima, an upper bound for |det|."""
    rows = np.max(np.abs(m), axis=1)
    return float(np.prod(rows))


def green(dim: int, energy, x: SpatialPoint, y: SpatialPoint, centers) -> GreenValue:
    """Green's function of the free Hamiltonian plus the given delta centers.

    Reduces to :func:`deltagreen.greenfn.g0` for an empty center list.
    Raises :class:`AtPoleError` when |det M| falls below 1e-12 relative to
    its natural scale (the energy sits on a bound-state pole).
    """
    cs = tuple(centers)
    if not cs:
        return g0(dim, energy, x, y)
    mm = m_matrix(dim, energy, cs)
    det = complex(np.linalg.det(mm.entries))
    scale = _det_scale(mm.entries)
    if scale == 0.0 or abs(det) <= DET_POLE_TOL * scale:
        raise AtPoleError(
            "energy is at (or numerically too close to) a bound-state pole",
            det=abs(det),
            scale=scale,
        )
    e = mm.energy
    pos = _positions(cs)
    gx = g0_kernel(dim, e, _distances_to(x, pos))
    gy = g0_kernel(dim, e, _distances_to(y, pos))
    base = g0(dim, e, x, y)
    corr = complex(gx @ np.linalg.solve(mm.entries, gy))
    return GreenValue(value=base.value + corr, dim=dim, retarded=base.retarded)


def _distances_to(x: SpatialPoint, pos: np.ndarray) -> np.ndarray:
    """|x - a_i| for every center position a_i (rows of ``pos``)."""
    if x.dim != pos.shape[1]:
        raise IllegalSpecError(
            "point dimension does not match dim", dim=pos.shape[1], xdim=x.dim
        )
    return np.sqrt(sum((c - xc) ** 2 for c, xc in zip(pos.T, x.coords)))


def _closed_form_energies(dim: int, cs: tuple[DeltaCenter, ...]) -> list[float]:
    e_b = cs[0].coupling.bound_state_energy(dim)
    return [e_b] if e_b is not None else []


def _m_prime(e_b: float, m_at) -> np.ndarray:
    """dM/dE at real E_B by a complex step; exact to machine precision."""
    h = 1e-20 * max(1.0, abs(e_b))
    return np.imag(m_at(complex(e_b, h))) / h


def _sign_probes(pos: np.ndarray) -> list[SpatialPoint]:
    centroid = pos.mean(axis=0)
    span = max(1.0, float(np.max(np.abs(pos - centroid))))
    probes = [centroid]
    for step in (0.37, 0.79, 1.31):
        shifted = centroid.copy()
        shifted[0] += step * span
        probes.append(shifted)
    return [SpatialPoint(tuple(p)) for p in probes]


def _residue_vector(dim: int, e_b: float, pos: np.ndarray, m_at) -> np.ndarray:
    m = m_at(e_b).real
    w, v = np.linalg.eigh(m)
    null = v[:, int(np.argmin(np.abs(w)))]
    mp = _m_prime(e_b, m_at)
    slope = float(null @ mp @ null)
    if slope <= 0.0:
        raise NonConvergenceError(
            "residue normalization failed (non-positive dM/dE at the root)",
            energy=e_b,
        )
    c = null / math.sqrt(slope)
    # fix the overall sign: psi > 0 at the centroid, falling back to probes
    # along the first axis for odd states or unevaluable centroids
    best = 0.0
    for p in _sign_probes(pos):
        try:
            val = _psi_raw(dim, e_b, pos, c, p)
        except DeltaGreenError:
            continue
        if abs(val) > abs(best):
            best = val
    if best < 0.0:
        c = -c
    out = np.asarray(c, dtype=float)
    out.setflags(write=False)
    return out


def _psi_raw(dim: int, e_b: float, pos: np.ndarray, coeff, x: SpatialPoint) -> float:
    # psi evaluation shared by the sign fix and the public accessor
    return float(g0_kernel(dim, e_b, _distances_to(x, pos)).real @ coeff)


def bound_states(
    dim: int,
    centers,
    search: tuple[float, float] | None = None,
    tol: float = 1e-12,
    method: str = "auto",
    grid_points: int = 400,
) -> list[BoundState]:
    """All bound states of the given centers, ascending in energy.

    Parameters
    ----------
    dim, centers
        Dimension and delta centers (couplings legal for the dimension).
    search : (E_min, E_max) or None
        Window on the negative real axis.  None picks a window wide enough
        around the single-center closed-form scales.
    tol : float
        Energy tolerance for root polishing.
    method : str
        "auto" returns the closed form directly for a single center;
        "scan" forces the generic det-M sign-change search.
    grid_points : int
        Resolution of the log-spaced kappa scan grid.

    Notes
    -----
    The scan walks det M on a log-spaced grid of kappa = sqrt(-E) (poles
    crowd toward E = 0- for weak coupling), evaluating the whole grid in
    batched kernel calls, brackets sign changes, bisects and
    secant-polishes each to |dE| <= tol.  An empty result is not an
    error.  For a single center the closed forms take precedence so the
    textbook formulas are testable verbatim.
    """
    cs, pos = _validate_centers(dim, centers)
    pairs, r = _pair_distances(pos)
    if not (tol > 0.0):
        raise DomainError("tol must be positive", tol=tol)
    if method not in ("auto", "scan"):
        raise IllegalSpecError("method must be 'auto' or 'scan'", method=method)

    window = _search_window(dim, cs, search)
    consts = _couplings(dim, cs)

    def m_at(energy) -> np.ndarray:
        # M(E) on these centers; their distances and couplings do not depend on E
        return _assemble(dim, ComplexEnergy.of(energy), consts, pairs, r)

    if method == "auto" and len(cs) == 1:
        energies = [
            e for e in _closed_form_energies(dim, cs) if window[0] <= e <= window[1]
        ]
    else:
        energies = _scan_energies(dim, consts, pairs, r, window, tol, grid_points)

    states = []
    for e_b in sorted(float(e) for e in energies):
        states.append(
            BoundState(
                energy=e_b,
                dim=dim,
                centers=cs,
                residue_vector=_residue_vector(dim, e_b, pos, m_at),
            )
        )
    return states


def _search_window(dim, cs, search):
    if search is not None:
        e_min, e_max = float(search[0]), float(search[1])
        if not (e_min < e_max < 0.0):
            raise DomainError(
                "search window must satisfy E_min < E_max < 0",
                e_min=e_min,
                e_max=e_max,
            )
        return e_min, e_max
    scales = [1.0]
    for c in cs:
        e_b = c.coupling.bound_state_energy(dim)
        if e_b is not None:
            scales.append(math.sqrt(-e_b))
    kap_hi = 4.0 * max(scales)
    kap_lo = min(scales) * 1e-3
    return -kap_hi * kap_hi, -kap_lo * kap_lo


def _scan_kappa(kappas: np.ndarray) -> np.ndarray:
    """sqrt(-E) at the scan energies E = -kappa^2, each checked as
    :class:`ComplexEnergy` checks it (finite, off the branch cut)."""
    with np.errstate(over="ignore"):  # an overflow is caught just below
        e = -kappas * kappas
    ok = np.isfinite(e) & (e < 0.0)
    if not ok.all():
        ComplexEnergy(complex(e[~ok][0]))  # raises the typed error
    return np.sqrt(-e)


def _scan_dets(
    dim: int, consts: CouplingConstants, pairs, r: np.ndarray, kappas: np.ndarray
) -> np.ndarray:
    """det M(-kappa^2) of the real matrices, for many kappa > 0 at once.

    One kernel call and one denominator call cover a whole batch of
    energies; batches hold at most SCAN_BATCH matrix entries, so memory
    stays bounded for many centers.
    """
    n = len(consts.value)
    step = max(1, SCAN_BATCH // (n * n))
    dets = []
    for i in range(0, len(kappas), step):
        kap = _scan_kappa(kappas[i : i + step])
        diag = renormalized_denominators(kap, consts)
        off = g0_of_kappa(dim, kap[:, None], r).real
        dets.append(np.linalg.det(_matrices(off, diag, pairs)))
    return np.concatenate(dets)


def _scan_energies(dim, consts, pairs, r, window, tol, grid_points):
    e_min, e_max = window
    kap_lo = math.sqrt(-e_max)
    kap_hi = math.sqrt(-e_min)
    if grid_points < 2:
        raise DomainError("grid_points must be at least 2", grid_points=grid_points)

    grid = np.geomspace(kap_lo, kap_hi, grid_points)
    # the grid is evaluated in one batch; bisection points one at a time
    on_grid = dict(zip(grid.tolist(), _scan_dets(dim, consts, pairs, r, grid).tolist()))

    def f(kap: float) -> float:
        if kap in on_grid:
            return on_grid[kap]
        return float(_scan_dets(dim, consts, pairs, r, np.array([kap]))[0])

    roots = []
    for a, b in bracket_sign_changes(f, grid):
        kap = refine_root(f, a, b, xtol=tol / (2.0 * b))
        roots.append(-kap * kap)
    # collapse duplicates from adjacent brackets
    roots.sort()
    out: list[float] = []
    for e in roots:
        if not out or abs(e - out[-1]) > max(10.0 * tol, 1e-12 * abs(e)):
            out.append(e)
    return out


def residue_wavefunction(state: BoundState, x) -> float:
    """Bound-state wavefunction psi_B(x) extracted from the residue of G.

    Normalized so the residue of :func:`green` at E_B equals
    psi_B(x) psi_B(y); in particular int |psi_B|^2 = 1.
    """
    if isinstance(x, (int, float)):
        x = SpatialPoint.of(float(x))
    elif not isinstance(x, SpatialPoint):
        x = SpatialPoint(tuple(x))
    return _psi_raw(
        state.dim, state.energy, _positions(state.centers), state.residue_vector, x
    )
