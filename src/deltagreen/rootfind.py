"""Bracketing root finding for the pole search: one algorithm.

Deliberately self-contained: no numerical oracle shares its regula falsi
(they root by bisection, the lattice's seeded by Newton steps on its own
Sturm pivots), so production and oracle never share a root-finding code path.
:func:`refine_brackets` refines sign-change brackets of a family of functions
tabulated together (the eigenvalue branches of M(E)) by Anderson-Bjorck
regula falsi with a bisection safeguard: one batched evaluation per step,
and the bookkeeping per bracket, in plain floats.
:func:`refine_root` is its one-bracket case for a scalar function.
:func:`bracket_sign_changes`, which finds a scalar function's brackets on a
grid, is not part of that engine: no production code calls it, and it stays
only because the benchmark's tracer wraps it by name.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
    root closes it), evaluates the distinct points, ascending, in one call,
    and lets every point tighten every bracket that contains it (found by
    bisection: O(k log p) for k brackets and p points).

    Returns each root: an exact zero when an end or a step hits one, else the
    secant point of a bracket at most xtol wide (or at floating-point
    resolution).  Raises :class:`NonConvergenceError` when brackets are still
    open after ``MAX_ITER`` steps.
    """
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
    root = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan)).tolist()
    cols, sign, xtol = np.asarray(cols).tolist(), sign.tolist(), xtol.tolist()
    a, b, fa, fb = a.tolist(), b.tolist(), fa.tolist(), fb.tolist()
    ga, gb, n = fa[:], fb[:], len(a)
    # the end moved last step (-1 a, 1 b, 0 both), the widths 1 and 2 steps ago
    moved, width1, width2, halve = [0] * n, [np.inf] * n, [np.inf] * n, [False] * n
    todo = [i for i, x in enumerate(root) if x != x]
    points = dict.fromkeys(todo)  # each bracket's point of the last step
    for step in range(MAX_ITER + 1):
        last, points, todo = points, {}, [i for i in todo if root[i] != root[i]]
        for i in todo:
            ai, bi = a[i], b[i]
            # the secant point closes a bracket at most xtol wide, or one left
            # without a point (at floating-point resolution)
            if i not in last or not bi - ai > xtol[i]:
                root[i] = _clip(ai + (bi - ai) * (fa[i] / (fa[i] - fb[i])), ai, bi)
                continue
            x = 0.5 * (ai + bi) if halve[i] else ai + (bi - ai) * (ga[i] / (ga[i] - gb[i]))
            gap = min(0.4 * xtol[i], 0.25 * (bi - ai))
            x = _clip(x, ai + gap, bi - gap)
            if not (x <= ai or x >= bi):
                points[i] = x
        if not points and all(root[i] == root[i] for i in todo):  # every bracket closed
            return np.array(root)
        if step == MAX_ITER:
            break
        if not points:
            continue
        xs = sorted(set(points.values()))
        rows = evaluate(np.array(xs)).T.tolist()
        for i in points:
            row, s, up, down = rows[cols[i]], sign[i], None, None
            # the last point inside where g > 0 and the first where g < 0;
            # the first where g == 0 is the root
            for p in range(bisect_right(xs, a[i]), bisect_left(xs, b[i])):
                if (g := row[p] * s) > 0.0:
                    up = xs[p], g
                elif g < 0.0:
                    down = down or (xs[p], g)
                elif g == 0.0:
                    root[i] = xs[p]
                    break
            else:
                # Anderson-Bjorck: an end kept twice in a row has its value scaled
                # by 1 - g_new/g_old of the moving end (by 1/2 if that is not positive)
                side = (down is not None) - (up is not None)  # the end that moves alone: -1 a, 1 b
                if up:
                    if side == moved[i] == -1:
                        gb[i] *= m if (m := 1.0 - up[1] / ga[i]) > 0.0 else 0.5
                    a[i], fa[i], ga[i] = *up, up[1]
                if down:
                    if side == moved[i] == 1:
                        ga[i] *= m if (m := 1.0 - down[1] / gb[i]) > 0.0 else 0.5
                    b[i], fb[i], gb[i] = *down, down[1]
                moved[i], width = side, b[i] - a[i]
                halve[i], width1[i], width2[i] = width > 0.5 * width2[i], width, width1[i]
    raise NonConvergenceError("roots not localized within the iteration budget",
                              open=sum(root[i] != root[i] for i in todo), iterations=MAX_ITER)


def _clip(x: float, lo: float, hi: float) -> float:
    """``np.clip`` of one float: NaN stays, a tie or lo > hi gives the bound."""
    x = lo if x <= lo else x
    return hi if x >= hi else x
