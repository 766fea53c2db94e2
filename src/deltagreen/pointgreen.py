"""Full Green's function for one or many delta centers; bound states; residues.

One attractive center at the origin gives the exact resolvent

    G(E; x, y) = G0(E; x, y) + G0(E; x, 0) G0(E; 0, y) / D(E),

with D(E) the renormalized denominator from :mod:`deltagreen.renorm`.  For N
centers a_1..a_N the correction generalizes to a small linear solve:

    G = G0(x, y) + sum_ij G0(x, a_i) [M^-1]_ij G0(a_j, y),
    M_ii = D_i(E),      M_ij = -G0(E; a_i, a_j)   (i != j).

M is complex symmetric (real symmetric on the negative real axis).  One
builder assembles it at an array of kappa = sqrt(-E) for :func:`m_matrix`,
:func:`green`, the residues and every batch of the scan: its N(N-1)/2 + N
distinct values, then one gather that lays out M.  The index arrays of that
layout depend on N alone, so they are built once per N and kept read-only,
about 12 N^2 bytes each (0.79 MB at N = 256, 12.6 MB at N = 1024; the last
8 counts up to 1024 are kept).  G has a pole
exactly where M is singular; :func:`green` reports one when its single
solve, given a probe column, shows cond(M) >= 1e12, and forms no det M,
which underflows for many centers.  Each point x is one kernel row.

Bound states are the real E < 0 where an eigenvalue of M(E) vanishes.  There
M' = dM/dE is a positive-definite Gram matrix of the functions G0(., a_i)
(Krein's resolvent formula), so every sorted eigenvalue mu_k(E) rises
strictly with E and vanishes at most once: the states in a window are the
branches that cross zero in it, n_+(M(E_max)) - n_+(M(E_min)) of them.  The
count n_+ only falls along a log-kappa grid, so a search evaluates the grid
only where a count changes (or M is not clear of rounding) to bracket each
branch between adjacent grid points; the brackets are then refined with
one batched ``eigvalsh`` per step serving every branch, each to |dE| <=
tol |E|, and roots within 2 max(tol, 1e-12) |E| of each other form a
degenerate multiplet (each is within half that of the energy).  The
residue of G there is sum_a psi_a(x) psi_a(y) with

    psi_a(x) = sum_i C_ia G0(E_B; x, a_i),     C^T M'(E_B) C = 1,

where the columns of C span the null space of M(E_B).  M' comes from a
complex step in ln kappa, not in E: S = -Im M(kappa (1 + i h)) / h, h =
1e-20, is 2 kappa^2 M', exact to machine precision since no difference is
taken (Squire and Trapp, SIAM Rev. 40 (1998) 110), and C^T S C = 2 kappa^2.
A step relative to kappa suits every E_B, and S stays a normal double over
the whole double range (one center: 1/(2 kappa) in 1D, 1/(2 pi) in 2D,
kappa/(4 pi) in 3D), while M' itself, 1/(4 kappa^3) in 1D, underflows for
deep states.  Only the products psi_a(x) psi_a(y) are fixed, so the sign
of psi_a is a convention: its coefficient C_ia of largest magnitude is made
negative, among ties within 1e-9 the first a_i in lexicographic coordinate
order.  G0 < 0, so psi_a is positive next to its dominant center.  All
multiplets of a scan share one residue pass: one M and one step assembly,
one ``eigh``.

Renormalization never touches the off-diagonal entries: G0(a_i, a_j) is
finite for distinct centers, so each center carries its own coupling and
only the diagonal is renormalized.  Centers closer than 1e-10 are rejected
rather than merged, since merging would silently change how many couplings
get renormalized.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import AtPoleError, DomainError, IllegalSpecError, NonConvergenceError, quiet
from .greenfn import (
    COINCIDENT_TOL,
    ComplexEnergy,
    GreenValue,
    SpatialPoint,
    as_number,
    as_point,
    check_dim,
    g0,
    g0_kernel,
    g0_of_kappa,
    require_type,
)
from .renorm import (
    CouplingSpec,
    coupling_constants,
    renormalized_denominator,  # noqa: F401  kept bound: perfbench's tracer wraps this name
    renormalized_denominators,
)
from .rootfind import bracket_sign_changes, refine_root  # noqa: F401  kept bound: perfbench's tracer wraps these names
from .rootfind import refine_brackets

#: An evaluation sits on a pole when max|A^-1 z| >= 1/POLE_TOL (see :func:`green`).
POLE_TOL = 1e-12

#: Centers closer than this are rejected as coincident.
CENTER_DISTINCT_TOL = 1e-10

#: Matrix entries assembled per batch of scan energies.
SCAN_BATCH = 1 << 14

#: Smallest kappa of the default search window: its square, 2^-1022, is the
#: smallest normal double, so E = -kappa^2 neither underflows nor loses bits.
KAPPA_FLOOR = 2.0**-511

#: Center counts whose pair layout (see :func:`_layout`) is cached, and how many are kept.
LAYOUT_CACHE_MAX_N = 1024
LAYOUT_CACHE_SIZE = 8


@dataclass(frozen=True)
class DeltaCenter:
    """A point interaction: a position (a number, tuple or point) and its coupling."""

    position: SpatialPoint
    coupling: CouplingSpec

    def __post_init__(self):
        object.__setattr__(self, "position", as_point(self.position))
        require_type(self.coupling, CouplingSpec, "coupling", "a center's coupling must be a CouplingSpec")
        self.coupling.require_dim(self.position.dim)


center = DeltaCenter


@dataclass(frozen=True, eq=False)
class MMatrix:
    """Snapshot of the N x N matrix whose zero eigenvalues mark bound states."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class BoundState:
    """A bound state: energy, its centers, their read-only positions and the residue vector."""

    energy: float
    dim: int
    centers: tuple[DeltaCenter, ...]
    residue_vector: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)

    @property
    def kappa(self) -> float:
        return math.sqrt(-self.energy)


def _center_tuple(centers) -> tuple:
    """A center list as a tuple; :class:`IllegalSpecError` for no list at all (None, a lone center)."""
    return tuple(require_type(centers, Iterable, "centers", "centers must be a list of DeltaCenter"))


def _validate_centers(dim: int, centers) -> tuple[tuple[DeltaCenter, ...], np.ndarray]:
    """The centers as a tuple, and their positions as an (N, dim) array."""
    cs = _center_tuple(centers)
    if not cs:
        raise IllegalSpecError("at least one center required")
    check_dim(dim, None, "dim must be one number, not an array")
    for c in cs:
        require_type(c, DeltaCenter, "centers", "a center must be a DeltaCenter")
        if c.position.dim != dim:
            raise IllegalSpecError(
                "center dimension mismatch", dim=dim, center_dim=c.position.dim
            )
    return cs, _positions(cs)


_last_positions: tuple = (None, None)  # (centers, positions), replaced and read whole


def _positions(cs) -> np.ndarray:
    """The centers' positions as a read-only (N, dim) array, built once per run of calls
    on one tuple: :func:`_strengths` takes those of its :func:`m_matrix` validation."""
    global _last_positions
    last_cs, pos = _last_positions
    if cs is not last_cs:
        pos = np.array([c.position.coords for c in cs], dtype=float)
        pos.setflags(write=False)
        _last_positions = (cs, pos)
    return pos


def _pair_distances(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The N x N slot map that lays out M by one gather, and |a_i - a_j| for
    the P pairs i < j (row-major): (i, j) and (j, i) read pair p's slot p,
    (i, i) slot P + i.

    The slot map and the pairs' flat indices depend on N alone: they come
    read-only from :func:`_layout`, cached per N up to 1024 centers, about
    12 N^2 bytes each.  Each coordinate's squared ``np.subtract.outer``
    differences are summed in place over the whole N x N array (two N x N
    doubles, whatever the dimension), and one gather takes the P pair
    entries; if a square overflows, :func:`_norms` recomputes the pairs
    hypot-style, and the first coincident pair names its (i, j).
    """
    n = len(pos)
    flat, slots = _layout(n)
    d2, sq = np.zeros((n, n)), np.empty((n, n))
    for c in pos.T:
        d2 += np.square(np.subtract.outer(c, c, out=sq), out=sq)
    r = np.sqrt(np.take(d2, flat))
    if not np.isfinite(r).all():
        i, j = divmod(flat, n)
        r = _norms(lambda: (c[i] - c[j] for c in pos.T))
    close = np.flatnonzero(r < CENTER_DISTINCT_TOL)
    if close.size:
        i, j = divmod(int(flat[close[0]]), n)
        raise IllegalSpecError("coincident centers (closer than 1e-10) are one center", i=i, j=j)
    return slots, r


def _layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(flat, slots) for N = n centers, read-only: the flat index i n + j into
    an N x N array of each pair i < j, row-major, and the slot map of
    :func:`_pair_distances`.  Cached for the last LAYOUT_CACHE_SIZE counts
    used up to LAYOUT_CACHE_MAX_N: 8 bytes per pair and per map entry."""
    return (_cached_layout if n <= LAYOUT_CACHE_MAX_N else _build_layout)(n)


def _build_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    i, j = np.triu_indices(n, 1)
    slots = np.empty((n, n), dtype=np.intp)
    slots[i, j] = slots[j, i] = np.arange(i.size)
    slots[np.diag_indices(n)] = i.size + np.arange(n)
    flat = i * n + j
    flat.setflags(write=False)
    slots.setflags(write=False)
    return flat, slots


_cached_layout = functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)(_build_layout)


def _m_of_kappa(dim: int, consts: np.ndarray, slots, r, kappas) -> np.ndarray:
    """M(-kappa^2) at every kappa of a 1-D array, from :func:`_pair_distances`
    and the coupling constants: real matrices for a real array, else complex.
    The denominators come first (at kappa = 0 in D = 1, 2 they raise before
    the kernel divides by zero), under the policy of :mod:`deltagreen.errors`.
    ``np.take``, unlike fancy indexing, keeps each matrix C-contiguous, the
    layout whose ``eigh`` bits tests pin.
    """
    diag = renormalized_denominators(dim, kappas, consts)
    off = g0_of_kappa(dim, kappas[:, None], r)
    return np.take(np.concatenate((-off, diag), axis=-1), slots, axis=-1)


@quiet
def m_matrix(dim: int, energy, centers) -> MMatrix:
    """Assemble M(E): renormalized denominators on the diagonal, -G0 off it; real at real kappa."""
    kappas = np.array([ComplexEnergy.of(energy).kappa])
    cs, pos = _validate_centers(dim, centers)
    slots, r = _pair_distances(pos)
    consts = coupling_constants(dim, [c.coupling for c in cs])
    m = _m_of_kappa(dim, consts, slots, r, kappas)[0]
    m.setflags(write=False)
    return MMatrix(entries=m)


@quiet
def green(dim: int, energy, x: SpatialPoint, y: SpatialPoint, centers) -> GreenValue:
    """Green's function of the free Hamiltonian plus the given delta centers.

    Reduces to :func:`deltagreen.greenfn.g0` for an empty center list.
    Raises :class:`AtPoleError` (a bound-state pole) on an exact zero pivot
    or when max|A^-1 z| >= 1/POLE_TOL, for a probe z solved with the value
    and A = M with unit row sums: then cond(M) >= cond(A) >= 1e12 (infinity
    norm, van der Sluis).  No det M, which underflows for many centers, and
    no row size (a center far weaker than the rest) moves the decision.

    The strengths c = M^-1 G0(a, y) do not depend on x, so consecutive calls
    with the same (E, y, centers) share one assembly and solve of M(E): a
    tabulation of G(., y) solves once, with values bit-identical to solving
    at every point.  Each point is then one kernel call, at |x - y| and |x - a_i|.
    """
    cs = _center_tuple(centers)
    if not cs:
        return g0(dim, energy, x, y)
    check_dim(dim, None, "dim must be one number, not an array")
    e, x, y = ComplexEnergy.of(energy), as_point(x), as_point(y)
    pos, c = _strengths(dim, e, y, cs)
    rx = _distances_to(x, pos)  # checks x's dimension (the solve checked y's) for math.dist
    k = g0_kernel(dim, e, np.concatenate(([math.dist(x.coords, y.coords)], rx)))
    return GreenValue(value=complex(k[0]) + complex(k[1:] @ c), dim=dim)


#: (key, (pos, c)) of the last :func:`_strengths` solve, replaced and read
#: whole so that no thread pairs one key with another's value.
_last_solve: tuple = (None, None)


def _strengths(dim: int, e: ComplexEnergy, y: SpatialPoint, cs: tuple) -> tuple:
    """The centers' positions and c = M(E)^-1 G0(a, y), both read-only.

    The last result is reused when its key compares equal, so equal keys must
    give equal bits: a + 0i equals a - 0i, but kappa is then real, so no
    value depends on the sign of a zero Im E (y and the positions enter
    squared, which loses a zero's sign too).  The key is compared, not
    hashed: the caller's centers compare by identity first.  A pole raises
    before anything is kept.
    """
    global _last_solve
    key = (dim, e, y, cs)
    last_key, last = _last_solve
    if key == last_key:
        return last
    m = m_matrix(dim, e, cs).entries
    pos = _positions(cs)
    gy = g0_kernel(dim, e, _distances_to(y, pos))
    # z_i = cos(i * golden angle): max|z_i| = 1, and no symmetric layout makes
    # z orthogonal to a null vector; times the row sums r_i of |M_ij|,
    # M^-1 (r z) = A^-1 z, so scaling a row (a weak center) moves no decision
    probe = np.cos(2.399963229728653 * np.arange(len(cs))) * np.abs(m).sum(axis=1)
    try:
        sol = np.linalg.solve(m, np.stack([gy, probe], axis=1))
        # NaN (an infinite or NaN entry of M) is no pole; GreenValue checks the value
        amplification = float(np.max(np.abs(sol[:, 1])))
    except np.linalg.LinAlgError:
        amplification = math.inf
    if amplification >= 1.0 / POLE_TOL:
        raise AtPoleError(
            "energy is at (or numerically too close to) a bound-state pole",
            amplification=amplification,
        )
    # the column stays a view of the solve: gx @ c on a contiguous copy runs
    # another BLAS kernel, whose sum can differ in the last bit
    c = sol[:, 0]
    c.setflags(write=False)
    _last_solve = (key, (pos, c))
    return pos, c


def _distances_to(x: SpatialPoint, pos: np.ndarray) -> np.ndarray:
    """|x - a_i| for every center position a_i (rows of ``pos``)."""
    if x.dim != pos.shape[1]:
        raise IllegalSpecError(
            "point dimension does not match dim", dim=pos.shape[1], xdim=x.dim
        )
    # one pass; past the doubles, the hypot way of _norms (DomainError if r is)
    r = np.sqrt(np.square(pos - x.coords).sum(axis=1))
    return r if np.isfinite(r).all() else _norms(lambda: (c - xc for c, xc in zip(pos.T, x.coords)))


def _norms(diffs) -> np.ndarray:
    """Euclidean lengths from ``diffs()``, one array of differences per
    coordinate (a callable, so the common case streams them).

    The squared differences are summed.  If that overflows anywhere, the
    overflowing entries are recomputed, as ``hypot`` does, from the
    differences divided by their largest magnitude, so every other entry
    keeps the bytes of the plain sum.  A length beyond the double range (or
    an infinite difference) raises :class:`DomainError`.
    """
    r = np.sqrt(sum(d**2 for d in diffs()))
    if (big := np.isinf(r)).any():
        parts = [np.abs(d[big]) for d in diffs()]
        scale = np.maximum.reduce(parts)
        r[big] = scale * np.sqrt(sum((p / scale) ** 2 for p in parts))
        if not np.isfinite(r).all():
            raise DomainError("distance overflows double precision")
    return r


def _residue_vectors(dim: int, consts: np.ndarray, slots, r, pos: np.ndarray,
                     multiplets) -> list:
    """One (N, k) block of residue vectors c_a per multiplet (E_B, k branches).

    The branches' eigenvectors span the null space V of M(E_B); with
    S = -Im M(kappa (1 + 1e-20 i)) / 1e-20 = 2 kappa^2 M' and V^T S V =
    U diag(g) U^T, the columns of C = V U sqrt(2) kappa g^(-1/2) satisfy
    C^T M' C = 1, so the residue of M^-1 is C C^T and Res G = sum_a
    psi_a(x) psi_a(y).  The largest-magnitude entry of each c_a, the first
    in lexicographic coordinate order among ties within 1e-9 (relative), is
    made negative, so psi_a is positive next to the center that dominates
    it.  A batch of multiplets (SCAN_BATCH entries of M) shares each
    assembly and ``eigh``; a block's bits are those of its multiplet alone.
    """
    out, step = [], max(1, SCAN_BATCH // len(pos) ** 2)
    order = np.lexsort(pos.T[::-1])  # the centers in lexicographic coordinate order
    for i in range(0, len(multiplets), step):
        batch = multiplets[i : i + step]
        kaps = np.sqrt([-e_b for e_b, _ in batch])
        m, m_step = (_m_of_kappa(dim, consts, slots, r, k) for k in (kaps, kaps * (1.0 + 1e-20j)))
        vecs = np.linalg.eigh(m)[1]
        for (e_b, branches), kap, v, s in zip(batch, kaps, vecs, m_step.imag / -1e-20):
            null = v[:, branches]
            gram = null.T @ s @ null  # LAPACK's eigh of a 1 x 1 matrix: its entry, vector [1]
            g, u = (gram[0], np.ones((1, 1))) if len(branches) == 1 else np.linalg.eigh(gram)
            if not g[0] > 0.0:
                raise NonConvergenceError("residue normalization failed (non-positive "
                                          "dM/dE at the root)", energy=e_b)
            coeffs = (null @ u) * (math.sqrt(2.0) * kap / np.sqrt(g))
            size = np.abs(coeffs[order])
            lead = order[np.argmax(size >= (1.0 - 1e-9) * size.max(axis=0), axis=0)]
            # G0 < 0: a negative c_ia makes psi_a positive next to a_i
            coeffs = np.where(coeffs[lead, np.arange(len(branches))] > 0.0, -coeffs, coeffs)
            coeffs.setflags(write=False)
            out.append(coeffs)
    return out


@quiet
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
        Relative energy tolerance for root polishing: |dE| <= tol |E|.
    method : str
        "auto" returns the closed form directly for a single center;
        "scan" forces the eigenvalue-branch search.
    grid_points : int
        Size of the log-spaced kappa grid whose adjacent points bracket each
        state, 2 to 10^6; the search evaluates M only at the few it needs.

    Notes
    -----
    The search brackets the zeros of the sorted eigenvalues of the real
    M(-kappa^2) on a log-spaced grid of kappa = sqrt(-E) (poles crowd toward
    E = 0- for weak coupling).  Each eigenvalue rises with E, so the branches
    positive at the window's top and not at its bottom are exactly its
    states, and the count of positive eigenvalues only falls along the grid:
    a bisection over grid indices, in batched kernel and ``eigvalsh`` calls,
    evaluates it only in cells where that count changes or M is not clear of
    rounding, and finds the same brackets as every grid point would (a count
    that rises anyway is rounding noise: :class:`NonConvergenceError`).
    Every branch's grid cell is refined at once (Anderson-Bjorck regula
    falsi, one ``eigvalsh`` batch per step evaluated for all branches) to
    |dE| <= tol |E|.  Each root is within max(tol, 1e-12) |E| of its energy,
    so roots within twice that of each other are one degenerate multiplet:
    several states at one energy (their mean); below tol ~ 1e-12 the
    rounding of M limits a root to about eps ||M(E)||_2 |c|^2, c its residue
    vector.  For a single center the closed forms take precedence so the
    textbook formulas are testable verbatim.

    Without a given window the bottom of the default one is lowered, kappa
    doubling, until M has as many positive eigenvalues as at E -> -inf, so
    no state lies below it.  Its top stays at the floor -2^-1022 or above:
    an empty result is not an error, except when every center binds alone
    with -E_B below that floor or 0 (:class:`DomainError`: M(E) is negative
    definite at E -> -inf and not at min E_B, so the centers bind a state
    the window misses).  E_B is read for the default window and for a lone
    center, and one that overflows raises :class:`DomainError` too; a given
    window over several centers is searched through their finite constants.
    """
    cs, pos = _validate_centers(dim, centers)
    slots, r = _pair_distances(pos)
    if not ((tol := as_number(tol, "tol", "a tolerance")) > 0.0):
        raise DomainError("tol must be positive", tol=tol)
    if not (grid_points := as_number(grid_points, "grid_points", "a grid size")).is_integer():
        raise IllegalSpecError("grid_points must be a whole number", grid_points=grid_points)
    if not 2 <= grid_points <= 10**6:  # the search starts at isqrt(grid_points) points
        raise DomainError("grid_points must be from 2 to 10^6", grid_points=grid_points)
    if method not in ("auto", "scan"):
        raise IllegalSpecError("method must be 'auto' or 'scan'", method=method)

    consts = coupling_constants(dim, [c.coupling for c in cs])
    # E_B is read for the default window's scales and for a lone center's own state
    own = [c.coupling.bound_state_energy(dim) for c in cs] if search is None or len(cs) == 1 else []
    window = _search_window(own, search)

    if method == "auto" and len(cs) == 1:
        # the closed form's E_B, unless it underflowed; only a given window filters it
        e_b = own[0]
        in_window = e_b is not None and e_b < 0.0 and (search is None or window[0] <= e_b <= window[1])
        multiplets = [(e_b, [0])] if in_window else []
    else:
        if search is None:
            window = (_window_bottom(dim, consts, slots, r, window[0]), window[1])
        multiplets = _scan_energies(dim, consts, slots, r, window, tol, int(grid_points))
    if not multiplets and search is None and all(e is not None and e > window[1] for e in own):
        raise DomainError("centers that bind alone above the default window bind a "
                          "state at E <= min E_B that it misses", e_b=min(own))

    blocks = _residue_vectors(dim, consts, slots, r, pos, multiplets)
    return [
        BoundState(energy=e_b, dim=dim, centers=cs, residue_vector=c, positions=pos)
        for (e_b, _), block in zip(multiplets, blocks)
        for c in block.T
    ]


def _search_window(own, search):
    """The given window, or the default one around the centers' own E_B."""
    if search is not None:
        pair = tuple(search) if np.iterable(search) else (search,)
        if len(pair) != 2:
            raise IllegalSpecError("search window must be a pair (E_min, E_max)", field="search")
        e_min, e_max = (as_number(e, "search", "a window bound") for e in pair)
        if not (-math.inf < e_min < e_max < 0.0):
            raise DomainError(
                "search window must satisfy E_min < E_max < 0",
                e_min=e_min,
                e_max=e_max,
            )
        return e_min, e_max
    scales = [1.0] + [math.sqrt(-e_b) for e_b in own if e_b is not None]
    kap_hi = min(4.0 * max(scales), math.sqrt(np.finfo(float).max))  # -kap_hi^2 stays finite
    kap_lo = max(min(scales) * 1e-3, KAPPA_FLOOR)
    return -kap_hi * kap_hi, -kap_lo * kap_lo


def _eigenvalues(dim: int, consts: np.ndarray, slots, r, kappas) -> np.ndarray:
    """Ascending eigenvalues of the real M(-kappa^2), one row per kappa > 0.

    One :func:`_m_of_kappa` call and one ``eigvalsh`` cover a whole batch of
    energies; batches hold at most SCAN_BATCH matrix entries, so memory
    stays bounded for many centers.  The kappas lie in a checked window, so
    no -kappa^2 overflows or underflows.
    """
    n = len(consts)
    step = max(1, SCAN_BATCH // (n * n))
    out = []
    for i in range(0, len(kappas), step):
        kap = kappas[i : i + step]
        m = _m_of_kappa(dim, consts, slots, r, kap)
        if not np.isfinite(m).all():
            raise DomainError("M(E) has an entry beyond double precision",
                              energy=float(-kap[0] * kap[0]))
        out.append(np.linalg.eigvalsh(m))
    return np.concatenate(out)


def _window_bottom(dim: int, consts: np.ndarray, slots, r, e_min: float) -> float:
    """E_min, lowered by doubling kappa until no state can lie below it.

    M' > 0 makes the number of positive eigenvalues of M(E) fall as E falls,
    to its E -> -inf limit: the 1D centers with a positive constant (D_i ->
    1/lambda_i > 0 while the off-diagonal decays), none in 2D and 3D.  Once
    M(E_min) has that many, every branch has crossed zero above E_min.  An
    E_min that overflows raises :class:`DomainError` as :class:`ComplexEnergy` does.
    """
    limit = int(np.sum(consts > 0.0)) if dim == 1 else 0
    kap = math.sqrt(-e_min)
    while True:
        e_min = ComplexEnergy(-kap * kap).value.real
        if np.sum(_eigenvalues(dim, consts, slots, r, np.array([kap])) > 0.0) <= limit:
            return e_min
        kap *= 2.0


def _brackets(dim, consts, slots, r, window, grid_points):
    """The branches k with a zero in the window, each with its bracket: the
    adjacent kappas of the log-kappa grid, and mu_k there, where mu_k turns
    non-positive.

    The grid is searched, not tabulated, and evaluated only at the indices
    searched (:func:`_geomspace_at`): first every isqrt(grid_points)-th
    point and the last, then, level by level in one batch, the midpoint of
    every cell between evaluated points whose ends differ in count n_+ or
    where M is not clear of rounding at either end (min|mu| <= POLE_TOL
    max|mu|).  A cell with neither has equal counts and every mu_k clear of
    zero at both ends; each mu_k is monotone, so every point inside would
    show that count too.  The evaluated counts are thus those of the whole
    grid, each change between adjacent points, and the guard on them names
    the first rise the whole grid shows.
    """
    e_min, e_max = window
    kap_lo, kap_hi = math.sqrt(-e_max), math.sqrt(-e_min)
    batch = sorted({*range(0, grid_points, math.isqrt(grid_points)), grid_points - 1})
    # key: an evaluated index's count n_+, or -1 where M is not clear of rounding
    cells, done, kaps, rows, key = list(zip(batch, batch[1:])), [], [], [], {}
    while batch:
        kap = _geomspace_at(kap_lo, kap_hi, grid_points, batch)
        mu = _eigenvalues(dim, consts, slots, r, kap)  # falls along each column
        blurred = np.abs(mu).min(axis=1) <= POLE_TOL * np.abs(mu).max(axis=1)
        key.update(zip(batch, np.where(blurred, -1, np.sum(mu > 0.0, axis=1)).tolist()))
        done, kaps, rows = done + batch, kaps + [kap], rows + [mu]
        cut = [(lo, hi) for lo, hi in cells if hi - lo > 1 and (key[lo] != key[hi] or key[lo] < 0)]
        batch = [(lo + hi) // 2 for lo, hi in cut]
        cells = [cell for (lo, hi), m in zip(cut, batch) for cell in ((lo, m), (m, hi))]
    order = np.argsort(done)
    kap, mu = np.concatenate(kaps)[order], np.concatenate(rows)[order]
    count = np.sum(mu > 0.0, axis=1)
    rises = np.flatnonzero(np.diff(count) > 0)
    if rises.size:  # M' > 0 forbids it: the signs that make the count are noise
        raise NonConvergenceError("positive eigenvalue count of M(E) rises as E falls",
                                  energy=float(-kap[rises[0] + 1] ** 2))
    n = mu.shape[1]
    ks = np.arange(n - count[0], n - count[-1])
    # the first grid kappa where branch k is no longer positive ends its bracket
    hi = np.argmax(mu[:, ks] <= 0.0, axis=0)
    return ks, kap[hi - 1], kap[hi], mu[hi - 1, ks], mu[hi, ks]


def _geomspace_at(lo: float, hi: float, n: int, idx) -> np.ndarray:
    """``np.geomspace(lo, hi, n)[idx]`` for ascending indices, computed only there as
    geomspace does: 10 ** (i step + log10 lo), and the end points exactly lo and hi."""
    log_lo = np.log10(lo)
    out = 10.0 ** (np.multiply(idx, (np.log10(hi) - log_lo) / (n - 1)) + log_lo)
    if idx[0] == 0:
        out[0] = lo
    if idx[-1] == n - 1:
        out[-1] = hi
    return out


def _scan_energies(dim, consts, slots, r, window, tol, grid_points):
    """(E_B, branch indices) of every multiplet of states in the window, ascending.

    Each branch with a zero in the window is bracketed on the log-kappa grid
    (:func:`_brackets`), all brackets are refined together, each to |dE| <=
    tol |E|, and zeros within 2 max(tol, 1e-12) |E| form one multiplet.
    """
    ks, lo, hi, mu_lo, mu_hi = _brackets(dim, consts, slots, r, window, grid_points)
    if not ks.size:
        return []
    # |dE| = 2 kappa dkappa <= tol kappa^2: a width that underflows refines
    # to resolution, one that overflows (a huge tol) closes at once
    xtol = np.maximum(0.5 * tol * lo, np.finfo(float).smallest_subnormal)
    kap = refine_brackets(lambda x: _eigenvalues(dim, consts, slots, r, x),
                          ks, lo, hi, mu_lo, mu_hi, xtol=xtol)
    order = np.argsort(-kap * kap)  # a higher branch crosses at a lower E
    energies, ks = -kap[order] * kap[order], ks[order]
    # a degenerate pair's roots agree only to a few ulps, hence the 1e-12
    # floor: both lie within max(tol, 1e-12) |E| of their energy.  An infinite
    # threshold merges all; a sum past -1.8e308 overflows: then average halves
    apart = np.diff(energies) > 2.0 * max(tol, 1e-12) * np.abs(energies[1:])
    groups = np.split(np.arange(ks.size), np.flatnonzero(apart) + 1)
    means = [np.mean(energies[g]) for g in groups]
    return [(float(m if np.isfinite(m) else 2.0 * np.mean(0.5 * energies[g])), np.sort(ks[g]))
            for m, g in zip(means, groups)]


@quiet
def residue_wavefunction(state: BoundState, x) -> float:
    """Bound-state wavefunction psi_B(x) extracted from the residue of G.

    Normalized so the residue of :func:`green` at E_B equals
    psi_B(x) psi_B(y); in particular int |psi_B|^2 = 1.  That fixes psi_B
    up to sign: it is positive next to the center of largest |c_i| in
    ``state.residue_vector`` (the first in coordinate order among ties).
    """
    require_type(state, BoundState, "state", "a bound state must be a BoundState")
    r = _distances_to(as_point(x), state.positions)
    if (r < COINCIDENT_TOL).any():
        g0_kernel(state.dim, state.energy, r)  # raises CoincidentPointsError in D >= 2
    return float(g0_of_kappa(state.dim, state.kappa, r) @ state.residue_vector)
