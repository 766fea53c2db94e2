"""Bracketing root finding for the pole search: one algorithm.

Deliberately self-contained; the numerical oracles root by plain bisection
instead, so production and oracle never share a root-finding code path.
:func:`refine_brackets` refines sign-change brackets of a family of functions
tabulated together (the eigenvalue branches of M(E)) by Anderson-Bjorck
regula falsi with a bisection safeguard, one batched evaluation per step.
:func:`refine_root` is its one-bracket case for a scalar function.
:func:`bracket_sign_changes`, which finds a scalar function's brackets on a
grid, is not part of that engine: no production code calls it, and it stays
only because the benchmark's tracer wraps it by name.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergenceError

#: Steps :func:`refine_brackets` may take (one evaluation each); read per call.
MAX_ITER = 200


def bracket_sign_changes(f: Callable[[float], float], xs) -> list[tuple[float, float]]:
    """Scan f over the sorted grid ``xs`` and return all sign-change brackets.

    Exact zeros at grid points are returned as degenerate brackets (x, x).
    """
    brackets: list[tuple[float, float]] = []
    xs = list(xs)
    fprev = f(xs[0])
    if fprev == 0.0:
        brackets.append((xs[0], xs[0]))
    for a, b in zip(xs, xs[1:]):
        fb = f(b)
        if fb == 0.0:
            brackets.append((b, b))
        elif fprev != 0.0 and (fprev < 0.0) != (fb < 0.0):
            brackets.append((a, b))
        fprev = fb
    return brackets


def refine_root(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """Refine a sign-change bracket [a, b] of a scalar f to width <= xtol.

    The one-bracket case of :func:`refine_brackets`, with its contract: f is
    evaluated at both ends, an end where f is exactly 0 is the root (so
    ``refine_root(f, a, a, xtol)`` returns a if f(a) == 0 and raises
    :class:`DomainError` otherwise), and each step evaluates f once, so f
    runs at most ``MAX_ITER + 2`` times.
    """
    a, b = min(a, b), max(a, b)
    roots = refine_brackets(
        lambda xs: np.array([[f(float(x))] for x in xs]), [0], a, b, f(a), f(b), xtol
    )
    return float(roots[0])


def refine_brackets(
    evaluate: Callable[[np.ndarray], np.ndarray], cols, a, b, fa, fb, xtol
) -> np.ndarray:
    """Refine many sign-change brackets at once; every evaluation serves all.

    Bracket j = [a_j, b_j] holds a root of function ``cols[j]`` of a family
    that ``evaluate(xs)`` tabulates, one row per x; fa and fb are its values
    at the ends, of opposite signs or exactly 0 at one end at least, which is
    then the root (a if both).  Each step proposes one point per open
    bracket (Anderson-Bjorck regula falsi; bisection when two steps did not
    halve the bracket; kept 0.4 xtol inside the ends, so a step next to the
    root closes it), evaluates the distinct points in one call, and lets
    every point tighten every bracket that contains it.

    Returns each root: an exact zero when an end or a step hits one, else the
    secant point of a bracket at most xtol wide (or at floating-point
    resolution).  Raises :class:`NonConvergenceError` when brackets are still
    open after ``MAX_ITER`` steps.
    """
    cols = np.asarray(cols, dtype=int)
    a, b, fa, fb = (np.array(v, dtype=float, ndmin=1) for v in (a, b, fa, fb))
    xtol = np.broadcast_to(np.asarray(xtol, dtype=float), a.shape)
    if not (xtol > 0.0).all():
        raise DomainError("xtol must be positive")
    # g = sign * f is >= 0 at a and <= 0 at b; ga, gb are the values
    # the steps use, scaled down at an end that stays put
    sign = np.where(fa != 0.0, np.sign(fa), -np.sign(fb))
    fa, fb = sign * fa, sign * fb
    if not ((fa >= 0.0) & (fb <= 0.0) & (a <= b)).all():
        raise DomainError("bracket does not change sign")
    root = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))

    def secant(i):  # of brackets with both ends nonzero
        return np.clip(a[i] + (b[i] - a[i]) * (fa[i] / (fa[i] - fb[i])), a[i], b[i])

    ga, gb = fa.copy(), fb.copy()
    moved = np.zeros(a.shape, dtype=int)  # end moved last step: -1 a, 1 b, 0 both
    widths = [np.full(a.shape, np.inf)] * 2  # widths one and two steps ago
    bisect = np.zeros(a.shape, dtype=bool)
    for step in range(MAX_ITER + 1):
        j = np.flatnonzero(np.isnan(root) & (b - a > xtol))
        if not j.size:
            done = np.isnan(root)
            root[done] = secant(done)
            return root
        if step == MAX_ITER:
            break
        aj, bj = a[j], b[j]
        x = np.where(bisect[j], 0.5 * (aj + bj), aj + (bj - aj) * (ga[j] / (ga[j] - gb[j])))
        gap = np.minimum(0.4 * xtol[j], 0.25 * (bj - aj))
        x = np.clip(x, aj + gap, bj - gap)
        stuck = (x <= aj) | (x >= bj)  # bracket at floating-point resolution
        root[j[stuck]] = secant(j[stuck])
        j, aj, bj, x = j[~stuck], aj[~stuck], bj[~stuck], x[~stuck]
        if not j.size:
            continue
        xs = np.unique(x)
        g = evaluate(xs)[:, cols[j]] * sign[j]  # (points, open brackets)
        inside = (xs[:, None] > aj) & (xs[:, None] < bj)
        zero = inside & (g == 0.0)
        hit = zero.any(axis=0)
        root[j[hit]] = xs[zero.argmax(axis=0)[hit]]
        up, down = inside & (g > 0.0), inside & (g < 0.0)
        ia = np.where(up, xs[:, None], -np.inf).argmax(axis=0)
        ib = np.where(down, xs[:, None], np.inf).argmin(axis=0)
        at = np.arange(j.size)
        new_a, new_b = up.any(axis=0), down.any(axis=0)
        old_a, old_b = ga[j], gb[j]
        a[j[new_a]] = xs[ia[new_a]]
        fa[j[new_a]] = ga[j[new_a]] = g[ia[new_a], at[new_a]]
        b[j[new_b]] = xs[ib[new_b]]
        fb[j[new_b]] = gb[j[new_b]] = g[ib[new_b], at[new_b]]
        # Anderson-Bjorck: an end kept twice in a row has its value scaled
        # by 1 - g_new/g_old of the moving end (by 1/2 if that is not positive)
        side = np.where(new_a & ~new_b, -1, np.where(new_b & ~new_a, 1, 0))
        for keep, moving, old, s in ((gb, ga, old_a, -1), (ga, gb, old_b, 1)):
            k = (side == s) & (moved[j] == s)
            m = 1.0 - moving[j[k]] / old[k]
            keep[j[k]] *= np.where(m > 0.0, m, 0.5)
        moved[j] = side
        width = b - a
        bisect = width > 0.5 * widths[1]
        widths = [width, widths[0]]
    raise NonConvergenceError(
        "roots not localized within the iteration budget",
        open=int(np.sum(np.isnan(root) & (b - a > xtol))),
        iterations=MAX_ITER,
    )
