"""Symmetric 2D and 3D layouts solved mode by mode: an oracle for N centers.

A layout that is one orbit of a finite abelian group acting freely on it,
with equal couplings, has an M(E) that commutes with the group, so the
group's characters diagonalize it: mode chi has the scalar eigenvalue

    lambda_chi(kappa) = D(kappa) + sum_{g != e} chi(g) K(kappa; |g a - a|),

K = -G0 > 0 the off-diagonal entry of M (K0(kappa r)/(2 pi) in 2D,
exp(-kappa r)/(4 pi r) in 3D).  Each lambda_chi falls as kappa rises and has
at most one root; here it is found by scipy's ``brentq`` in ln kappa, with
scipy's ``k0``, with no matrix and no eigen-decomposition, and compared with
the production scan of the full M.  Modes with conjugate characters are
degenerate; rings other than N = 4 are symmetric only to rounding, so roots
within 1e-12 relative count as one multiplet.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import k0

from deltagreen import bound_states, center, from_bound_state

WINDOW = (-1600.0, -1e-12)
REL = 1e-12


def _ring(n: int, radius: float):
    """N centers on a circle (Z_N): positions, then each rotation's displacement
    |g a - a| and character values chi_m(g), both indexed by g = 0..N-1."""
    angles = 2.0 * math.pi * np.arange(n) / n
    pts = [(radius * math.cos(t), radius * math.sin(t)) for t in angles]
    dist = 2.0 * radius * np.abs(np.sin(math.pi * np.arange(n) / n))
    # lambda is real: chi_m and chi_(N-m) are conjugate and K is even in g
    chars = [np.cos(2.0 * math.pi * m * np.arange(n) / n) for m in range(n)]
    return pts, dist, chars


def _box(dim: int, edge: float):
    """The 2^dim corners of a square or cube (Z_2^dim, one reflection per axis)."""
    flips = np.array(list(itertools.product((0, 1), repeat=dim)))
    pts = [tuple(edge * (0.5 - f)) for f in flips]
    dist = edge * np.sqrt(flips.sum(axis=1))
    chars = [(-1.0) ** (flips @ b) for b in flips]
    return pts, dist, chars


LAYOUTS = {
    **{f"{d}d_ring{n}": (d, *_ring(n, radius))
       for d in (2, 3) for n, radius in ((4, 1.0), (6, 1.0), (12, 2.0), (24, 3.0))},
    "2d_square": (2, *_box(2, 2.0)),
    "3d_cube": (3, *_box(3, 1.2)),
}


def _mode_eigenvalue(dim: int, dist, chi):
    """lambda_chi as a function of ln kappa, for E_B = -1 centers."""
    r, c = dist[1:], chi[1:]
    if dim == 2:  # D = (ln kappa_B - ln kappa)/(2 pi), kappa_B = 1
        return lambda t: (-t + c @ k0(math.exp(t) * r)) / (2.0 * math.pi)
    return lambda t: (1.0 - math.exp(t) + c @ (np.exp(-math.exp(t) * r) / r)) / (4.0 * math.pi)


def _multiplets(energies):
    """(energy, size) of each run of energies within REL of its first, ascending."""
    out = []
    for e in sorted(energies):
        if out and abs(e - out[-1][0]) <= REL * abs(e):
            out[-1][1] += 1
        else:
            out.append([e, 1])
    return out


@pytest.mark.parametrize("name", LAYOUTS)
def test_symmetric_layouts_bind_mode_by_mode(name):
    dim, pts, dist, chars = LAYOUTS[name]
    pad = (0.0,) * (dim - len(pts[0]))  # a ring lies in the z = 0 plane of 3D
    cs = [center(p + pad, from_bound_state(-1.0)) for p in pts]
    t_lo, t_hi = (0.5 * math.log(-e) for e in WINDOW[::-1])
    modes = []
    for chi in chars:
        lam = _mode_eigenvalue(dim, dist, chi)
        if lam(t_lo) > 0.0 > lam(t_hi):  # lambda_chi falls with kappa: one root or none
            t = brentq(lam, t_lo, t_hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
            modes.append(-math.exp(2.0 * t))
    want = _multiplets(modes)
    assert want  # every layout binds

    states = bound_states(dim, cs, search=WINDOW, method="scan")
    got = _multiplets([s.energy for s in states])
    assert [size for _, size in got] == [size for _, size in want]
    for (e_got, _), (e_want, _) in zip(got, want):
        assert e_got == pytest.approx(e_want, rel=REL, abs=0.0)
    # a multiplet's states share one energy
    assert len({s.energy for s in states}) == len(got)
