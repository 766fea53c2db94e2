"""Full Green's function for one or many delta centers; bound states; residues.

One attractive center at the origin gives the exact resolvent

    G(E; x, y) = G0(E; x, y) + G0(E; x, 0) G0(E; 0, y) / D(E),

with D(E) the renormalized denominator from :mod:`deltagreen.renorm`.  For N
centers a_1..a_N the correction generalizes to a small linear solve:

    G = G0(x, y) + sum_ij G0(x, a_i) [M^-1]_ij G0(a_j, y),
    M_ii = D_i(E),      M_ij = -G0(E; a_i, a_j)   (i != j).

M is complex symmetric (real symmetric on the negative real axis).  One
prologue checks a center list and binds one builder to its layout: M(kappa)
assembles M at an array of kappa = sqrt(-E) for :func:`m_matrix`,
:func:`green`, the residues and every batch of the scan, from its
N(N-1)/2 + N distinct values by one gather.  The index arrays of that
layout depend on N alone, so they are built once per N and kept read-only:
each pair's two ends as 4-byte indices and the 8-byte N x N slot map,
about 12 N^2 bytes (0.79 MB at N = 256, 12.6 MB at N = 1024; the last 8
counts up to 1024 are kept).  G has a pole exactly where M is singular;
:func:`green` reports one when its single solve, given a probe column,
shows cond(M) >= 1e12, and forms no det M, which underflows for many
centers.  Each point x is one kernel row at the kappa of the solve.

Bound states are the real E < 0 where an eigenvalue of M(E) vanishes.  There
M' = dM/dE is a positive-definite Gram matrix of the functions G0(., a_i)
(Krein's resolvent formula), so every sorted eigenvalue mu_k(E) rises
strictly with E and vanishes at most once: the states in a window are the
branches that cross zero in it, n_+(M(E_max)) - n_+(M(E_min)) of them.
Every stage of the search evaluates one function, the sorted mu_k at an
array of kappa.  The count n_+ only falls along a log-kappa grid, so a
search evaluates the grid only where a count changes (or M is not clear of
rounding) to bracket each branch between adjacent grid points (first where
a secant through a cell's ends predicts each crossing); the brackets are
then refined with one batched ``eigvalsh`` per step serving every branch,
each to |dE| <= tol |E|, and roots within 2 max(tol, 1e-12) |E| of each
other form a degenerate multiplet (each is within half that of the
energy).  The residue of G there is sum_a psi_a(x) psi_a(y) with

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
    ComplexEnergy,
    GreenValue,
    SpatialPoint,
    as_number,
    as_point,
    _check_dim,
    _kernel_row,
    distance,
    g0,
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


def _lay_out(dim: int, centers) -> tuple:
    """A checked center list laid out: the centers as a tuple, their read-only
    (N, dim) positions, their constants, :func:`_m_of_kappa` bound to them,
    and the dimension as a Python int."""
    cs = _center_tuple(centers)
    if not cs:
        raise IllegalSpecError("at least one center required")
    dim = _check_dim(dim)
    for c in cs:
        require_type(c, DeltaCenter, "centers", "a center must be a DeltaCenter")
        if c.position.dim != dim:
            raise IllegalSpecError(
                "center dimension mismatch", dim=dim, center_dim=c.position.dim
            )
    pos = np.array([c.position.coords for c in cs], dtype=float)
    pos.setflags(write=False)
    slots, r = _pair_distances(pos)
    consts = coupling_constants(dim, [c.coupling for c in cs])
    return cs, pos, consts, functools.partial(_m_of_kappa, dim, consts, slots, r), dim


def _pair_distances(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The N x N slot map that lays out M by one gather, and |a_i - a_j| for
    the P pairs i < j (row-major): (i, j) and (j, i) read pair p's slot p,
    (i, i) slot P + i.

    The slot map and the pairs' ends depend on N alone: they come read-only
    from :func:`_layout`, cached per N up to 1024 centers.  Each coordinate
    is gathered at both ends of the P pairs and the squared differences are
    summed into one P-vector, with no N x N temporary; if a square
    overflows, :func:`_lengths` recomputes the pairs hypot-style, and the
    first coincident pair names its (i, j).
    """
    pairs, slots = _layout(len(pos))
    i, j = pairs.astype(np.intp)  # one cast per call, not one per gather
    r = None
    for c in pos.T:  # the squares summed in coordinate order, in place
        d = c[i]
        d -= c[j]
        d *= d
        if r is None:
            r = d
        else:
            r += d
    np.sqrt(r, out=r)
    if not np.isfinite(r).all():
        r = _lengths(pos[i] - pos[j])
    close = np.flatnonzero(r < CENTER_DISTINCT_TOL)
    if close.size:
        p = close[0]
        raise IllegalSpecError("coincident centers (closer than 1e-10) are one center", i=int(i[p]), j=int(j[p]))
    return slots, r


def _layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, slots) for N = n centers, read-only: the (2, P) ends i < j of
    each pair, row-major, as 4-byte indices, and the slot map of
    :func:`_pair_distances`.  Cached for the last LAYOUT_CACHE_SIZE counts
    used up to LAYOUT_CACHE_MAX_N: 8 bytes per pair and per map entry,
    about 12 N^2 bytes."""
    return (_cached_layout if n <= LAYOUT_CACHE_MAX_N else _build_layout)(n)


def _build_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = np.array(np.triu_indices(n, 1), dtype=np.int32)
    slots = np.empty((n, n), dtype=np.intp)
    slots[pairs[0], pairs[1]] = slots[pairs[1], pairs[0]] = np.arange(pairs.shape[1])
    slots[np.diag_indices(n)] = pairs.shape[1] + np.arange(n)
    pairs.setflags(write=False)
    slots.setflags(write=False)
    return pairs, slots


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
    m = _lay_out(dim, centers)[3](kappas)[0]
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
    at every point.  Each point is then one kernel row, at |x - y| and
    |x - a_i| and the kappa kept with the solve.
    """
    cs = _center_tuple(centers)
    if not cs:
        return g0(dim, energy, x, y)
    dim = _check_dim(dim)
    e, x, y = ComplexEnergy.of(energy), as_point(x), as_point(y)
    pos, kap, c = _strengths(dim, e, y, cs)
    rx = _distances_to(x, pos)  # checks x's dimension (the solve checked y's)
    k = _kernel_row(dim, kap, np.concatenate(([distance(x, y)], rx)))
    return GreenValue(value=complex(k[0]) + complex(k[1:] @ c), dim=dim)


#: (key, (pos, kappa, c)) of the last :func:`_strengths` solve, replaced and
#: read whole so that no thread pairs one key with another's value.
_last_solve: tuple = (None, None)


def _strengths(dim: int, e: ComplexEnergy, y: SpatialPoint, cs: tuple) -> tuple:
    """The centers' positions, kappa = sqrt(-E) and c = M(E)^-1 G0(a, y),
    the arrays read-only.

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
    pos = np.array([c.position.coords for c in cs], dtype=float)
    pos.setflags(write=False)
    kap = e.kappa
    gy = _kernel_row(dim, kap, _distances_to(y, pos))
    # the two right-hand sides written in place: G0(a, y), and the probe z
    # times the row sums r_i of |M_ij|: M^-1 (r z) = A^-1 z, so scaling a
    # row (a weak center) moves no decision
    rhs = np.empty((len(cs), 2), dtype=gy.dtype)
    rhs[:, 0] = gy
    rhs[:, 1] = _probe(len(cs)) * np.abs(m).sum(axis=1)
    try:
        sol = np.linalg.solve(m, rhs)
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
    _last_solve = (key, (pos, kap, c))
    return pos, kap, c


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _probe(n: int) -> np.ndarray:
    """z_i = cos(i * golden angle) for N = n centers, read-only, kept per N as
    the layout is: max|z_i| = 1, and no symmetric layout makes z orthogonal
    to a null vector."""
    z = np.cos(2.399963229728653 * np.arange(n))
    z.setflags(write=False)
    return z


def _distances_to(x: SpatialPoint, pos: np.ndarray) -> np.ndarray:
    """|x - a_i| for every center position a_i (rows of ``pos``)."""
    if x.dim != pos.shape[1]:
        raise IllegalSpecError(
            "point dimension does not match dim", dim=pos.shape[1], xdim=x.dim
        )
    return _lengths(pos - x.coords)


def _lengths(diff: np.ndarray) -> np.ndarray:
    """The Euclidean length of each row of an (M, D) array of differences: the
    plain sum of squares, except that rows where it overflows are recomputed,
    as ``hypot`` does, from the row divided by its largest magnitude, so every
    other row keeps the bytes of the plain sum.  A length beyond the double
    range (or an infinite difference) raises :class:`DomainError`."""
    r = np.sqrt(np.square(diff).sum(axis=1))
    if (big := np.isinf(r)).any():
        parts = np.abs(diff[big])
        scale = parts.max(axis=1)
        r[big] = scale * np.sqrt(np.square(parts / scale[:, None]).sum(axis=1))
        if not np.isfinite(r).all():
            raise DomainError("distance overflows double precision")
    return r


def _residue_vectors(m_of_kappa, pos: np.ndarray, multiplets) -> list:
    """One (N, k) block of residue vectors c_a per multiplet (E_B, k branches),
    from M(kappa) and the centers' positions.

    The branches' eigenvectors span the null space V of M(E_B); with
    S = -Im M(kappa (1 + 1e-20 i)) / 1e-20 = 2 kappa^2 M' and V^T S V =
    U diag(g) U^T, the columns of C = V U sqrt(2) kappa g^(-1/2) satisfy
    C^T M' C = 1, so the residue of M^-1 is C C^T and Res G = sum_a
    psi_a(x) psi_a(y).  The largest-magnitude entry of each c_a, the first
    in lexicographic coordinate order among ties within 1e-9 (relative), is
    made negative, so psi_a is positive next to the center that dominates
    it.  A batch of multiplets (SCAN_BATCH entries of M) shares each
    assembly and ``eigh``, and its one-state multiplets (U = [1], g = v^T S v)
    share one pass: their Grams by one stacked matmul, then the scale and the
    sign, one row per state.  A degenerate multiplet takes its own ``eigh``
    of V^T S V.  A block's bits are those of its multiplet alone, and the
    first multiplet, in order, whose g is not positive raises.
    """
    out, step = [], max(1, SCAN_BATCH // len(pos) ** 2)
    order = np.lexsort(pos.T[::-1])  # the centers in lexicographic coordinate order
    for i in range(0, len(multiplets), step):
        batch = multiplets[i : i + step]
        kaps = np.sqrt([-e_b for e_b, _ in batch])
        m, m_step = (m_of_kappa(k) for k in (kaps, kaps * (1.0 + 1e-20j)))
        vecs, s = np.linalg.eigh(m)[1], m_step.imag / -1e-20
        one = [j for j, (_, branches) in enumerate(batch) if len(branches) == 1]
        v = vecs[one, :, [batch[j][1][0] for j in one]]  # one state's null vector per row
        g = (v[:, None, :] @ s[one] @ v[:, :, None])[:, 0, 0]
        # a multiplet's V U, with U = [[1.0]], sums from +0.0: a -0.0 entry turns +0.0
        scaled = (v + 0.0) * (math.sqrt(2.0) * kaps[one] / np.sqrt(g))[:, None]
        rows = _lead_negative(scaled.T, order).T  # C-contiguous rows: psi reads each at unit stride
        rows.setflags(write=False)
        singles = dict(zip(one, zip(g.tolist(), rows)))
        for j, (e_b, branches) in enumerate(batch):
            if j in singles:
                g_min, row = singles[j]
                block = row[:, None]
            else:
                null = vecs[j][:, branches]
                gs, u = np.linalg.eigh(null.T @ s[j] @ null)
                g_min = gs[0]
                block = _lead_negative((null @ u) * (math.sqrt(2.0) * kaps[j] / np.sqrt(gs)), order)
                block.setflags(write=False)
            if not g_min > 0.0:
                raise NonConvergenceError("residue normalization failed (non-positive "
                                          "dM/dE at the root)", energy=e_b)
            out.append(block)
    return out


def _lead_negative(coeffs: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``coeffs`` (N, k) with each column's largest-magnitude entry, the first
    in ``order`` among ties within 1e-9 (relative), made negative."""
    size = np.abs(coeffs[order])
    lead = order[np.argmax(size >= (1.0 - 1e-9) * size.max(axis=0), axis=0)]
    # G0 < 0: a negative c_ia makes psi_a positive next to a_i
    return np.where(coeffs[lead, np.arange(coeffs.shape[1])] > 0.0, -coeffs, coeffs)


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
    a search over grid indices, in batched kernel and ``eigvalsh`` calls,
    evaluates it only in cells where that count changes or M is not clear of
    rounding, at the points around each branch's secant-predicted crossing
    or by bisection, and finds the same brackets as every grid point would
    (a count that rises anyway is rounding noise: :class:`NonConvergenceError`).
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
    cs, pos, consts, m_of_kappa, dim = _lay_out(dim, centers)
    if not ((tol := as_number(tol, "tol", "a tolerance")) > 0.0):
        raise DomainError("tol must be positive", tol=tol)
    if not (grid_points := as_number(grid_points, "grid_points", "a grid size")).is_integer():
        raise IllegalSpecError("grid_points must be a whole number", grid_points=grid_points)
    if not 2 <= grid_points <= 10**6:  # the search starts at isqrt(grid_points) points
        raise DomainError("grid_points must be from 2 to 10^6", grid_points=grid_points)
    if method not in ("auto", "scan"):
        raise IllegalSpecError("method must be 'auto' or 'scan'", method=method)

    # E_B is read for the default window's scales and for a lone center's own state
    own = [c.coupling.bound_state_energy(dim) for c in cs] if search is None or len(cs) == 1 else []
    window = _search_window(own, search)

    if method == "auto" and len(cs) == 1:
        # the closed form's E_B, unless it underflowed; only a given window filters it
        e_b = own[0]
        in_window = e_b is not None and e_b < 0.0 and (search is None or window[0] <= e_b <= window[1])
        multiplets = [(e_b, [0])] if in_window else []
    else:
        eigenvalues = functools.partial(_eigenvalues, m_of_kappa, len(cs))
        if search is None:
            limit = int(np.sum(consts > 0.0)) if dim == 1 else 0
            window = (_window_bottom(eigenvalues, limit, window[0]), window[1])
        multiplets = _scan_energies(eigenvalues, window, tol, int(grid_points))
    if not multiplets and search is None and all(e is not None and e > window[1] for e in own):
        raise DomainError("centers that bind alone above the default window bind a "
                          "state at E <= min E_B that it misses", e_b=min(own))

    blocks = _residue_vectors(m_of_kappa, pos, multiplets)
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


def _eigenvalues(m_of_kappa, n: int, kappas) -> np.ndarray:
    """Ascending eigenvalues of the real N x N M(-kappa^2), one row per kappa > 0.

    One M(kappa) call and one ``eigvalsh`` cover a whole batch of energies;
    batches hold at most SCAN_BATCH matrix entries, so memory stays bounded
    for many centers.  The kappas lie in a checked window, so no -kappa^2
    overflows or underflows.
    """
    step = max(1, SCAN_BATCH // (n * n))
    if len(kappas) > step:
        return np.concatenate([_eigenvalues(m_of_kappa, n, kappas[i : i + step])
                               for i in range(0, len(kappas), step)])
    m = m_of_kappa(kappas)
    if not np.isfinite(m).all():
        raise DomainError("M(E) has an entry beyond double precision",
                          energy=float(-kappas[0] * kappas[0]))
    return np.linalg.eigvalsh(m)


def _window_bottom(eigenvalues, limit: int, e_min: float) -> float:
    """E_min, lowered by doubling kappa until no state can lie below it.

    M' > 0 makes the number of positive eigenvalues of M(E) fall as E falls,
    to its E -> -inf ``limit``: the 1D centers with a positive constant (D_i
    -> 1/lambda_i > 0 while the off-diagonal decays), none in 2D and 3D.  Once
    ``eigenvalues`` shows that many at E_min, every branch has crossed zero
    above it.  An E_min that overflows raises :class:`DomainError` as :class:`ComplexEnergy` does.
    """
    kap = math.sqrt(-e_min)
    while True:
        e_min = ComplexEnergy(-kap * kap).value.real
        if np.sum(eigenvalues(np.array([kap])) > 0.0) <= limit:
            return e_min
        kap *= 2.0


def _brackets(eigenvalues, window, grid_points):
    """The branches k with a zero in the window, each with its bracket: the
    adjacent kappas of the log-kappa grid, and mu_k there, where mu_k turns
    non-positive; ``eigenvalues`` gives a row of N ascending mu per kappa.

    The grid, ``np.geomspace`` over the window's kappas, is built once and
    searched, not tabulated.  The state is the evaluated grid indices,
    ascending, and their mu rows; a cell is two adjacent evaluated points.
    M is evaluated first at every isqrt(grid_points)-th point and the last,
    then, round by round in one batch, inside every cell whose ends differ
    in count n_+ or where M is not clear of rounding at either end (min|mu|
    <= POLE_TOL max|mu|).  Where the count falls between clear ends, each
    crossing branch's secant, q = lo + (hi - lo) mu_k(lo) / (mu_k(lo) -
    mu_k(hi)), predicts its crossing in (j - 1, j), j = ceil(q), since mu_k
    is smooth and monotone in ln kappa: the cell takes the points j - 2 ..
    j + 1 and, from the second round on, its midpoint, so a missed
    prediction halves it.  Any other cell is bisected.  A closed cell keeps
    its ends, so it stays closed; the search ends when no cell is open.
    Then every cell has equal counts and every mu_k clear of zero at both
    ends; each mu_k is monotone, so every point inside would show that count
    too.  The evaluated counts are thus those of the whole grid, each change
    between adjacent points, and the guard on them names the first rise the
    whole grid shows; every mu is the same bits as it would be in any batch.
    """
    e_min, e_max = window
    grid = np.geomspace(math.sqrt(-e_max), math.sqrt(-e_min), grid_points)
    idx = np.array(sorted({*range(0, grid_points, math.isqrt(grid_points)), grid_points - 1}))
    mu, first = eigenvalues(grid[idx]), True  # mu falls along each column
    while True:
        size, count, n = np.abs(mu), (mu > 0.0).sum(axis=1), mu.shape[1]
        # a point's key: its count n_+, or -1 where M is not clear of rounding
        key = np.where(size.min(axis=1) <= POLE_TOL * size.max(axis=1), -1, count)
        lo, hi, above, below = idx[:-1], idx[1:], key[:-1], key[1:]
        wide = hi - lo > 1
        falling = wide & (below >= 0) & (above > below)
        bisected = wide & ((above != below) | (below < 0)) & ~falling
        inner = set()
        for p in np.flatnonzero(falling).tolist():  # each crossing branch's secant index q
            i, j = idx[p : p + 2].tolist()
            crossing = slice(n - key[p], n - key[p + 1])
            for a, b in zip(mu[p, crossing].tolist(), mu[p + 1, crossing].tolist()):  # a > 0 >= b
                q = math.ceil(i + (j - i) * a / (a - b))
                inner.update(range(max(q - 2, i + 1), min(q + 2, j)))
            if not first:
                inner.add((i + j) // 2)
        batch = np.sort(np.concatenate(((lo + hi)[bisected] // 2, np.fromiter(inner, idx.dtype))))
        if not batch.size:
            break
        idx, rows = np.concatenate((idx, batch)), eigenvalues(grid[batch])
        order, first = idx.argsort(), False
        idx, mu = idx[order], np.concatenate((mu, rows))[order]
    rise = np.flatnonzero(count[1:] > count[:-1])
    if rise.size:  # M' > 0 forbids it: the signs that make the count are noise
        raise NonConvergenceError("positive eigenvalue count of M(E) rises as E falls",
                                  energy=float(-grid[idx[rise[0] + 1]] ** 2))
    ks = np.arange(n - count[0], n - count[-1])
    # branch k is positive while n_+ >= n - k (the mu ascend): its bracket ends at the
    # first evaluated kappa past that, where the falling n_+ first drops below n - k
    p = np.searchsorted(-count, ks - n, side="right")
    return ks, grid[idx[p - 1]], grid[idx[p]], mu[p - 1, ks], mu[p, ks]


def _scan_energies(eigenvalues, window, tol, grid_points):
    """(E_B, branch indices) of every multiplet of states in the window, ascending.

    Each branch of ``eigenvalues`` with a zero in the window is bracketed on
    the log-kappa grid (:func:`_brackets`), all brackets are refined
    together, each to |dE| <= tol |E|, and zeros within 2 max(tol, 1e-12) |E|
    form one multiplet.
    """
    ks, lo, hi, mu_lo, mu_hi = _brackets(eigenvalues, window, grid_points)
    if not ks.size:
        return []
    # |dE| = 2 kappa dkappa <= tol kappa^2: a width that underflows refines
    # to resolution, one that overflows (a huge tol) closes at once
    xtol = np.maximum(0.5 * tol * lo, np.finfo(float).smallest_subnormal)
    kap = refine_brackets(eigenvalues, ks, lo, hi, mu_lo, mu_hi, xtol=xtol)
    order = np.argsort(-kap * kap)  # a higher branch crosses at a lower E
    energies, ks = -kap[order] * kap[order], ks[order]
    # a degenerate pair's roots agree only to a few ulps, hence the 1e-12
    # floor: both lie within max(tol, 1e-12) |E| of their energy.  An infinite
    # threshold merges all; a sum past -1.8e308 overflows: then average halves
    apart = np.diff(energies) > 2.0 * max(tol, 1e-12) * np.abs(energies[1:])
    ends = [0, *(np.flatnonzero(apart) + 1).tolist(), ks.size]
    out = []
    for i, j in zip(ends, ends[1:]):
        group = energies[i:j]
        if j - i == 1:  # one state: its energy as it is
            out.append((float(group[0]), ks[i:j]))
        else:
            m = np.mean(group)
            out.append((float(m if np.isfinite(m) else 2.0 * np.mean(0.5 * group)), np.sort(ks[i:j])))
    return out


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
    return float(_kernel_row(state.dim, state.kappa, r) @ state.residue_vector)
