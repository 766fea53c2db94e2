"""Bracketing root finders used by the pole search.

Deliberately self-contained (the numerical oracles use an independent library
solver, so production and oracle never share a root-finding code path).
:func:`refine_root` refines one bracket of a scalar function: bisection
until the bracket is tight, then a few secant steps for polish, everything
capped at ``MAX_ITER`` function evaluations.  :func:`refine_brackets`
refines many brackets of a family of functions tabulated together (the
eigenvalue branches of M(E)), one batched evaluation per step.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergenceError

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


def refine_root(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float,
    max_iter: int = MAX_ITER,
) -> float:
    """Refine a sign-change bracket [a, b] to width <= xtol, then secant-polish.

    Raises :class:`NonConvergenceError` after ``max_iter`` evaluations (for
    instance when xtol is below the floating-point spacing of the bracket).
    """
    if not (xtol > 0.0):
        raise DomainError("xtol must be positive", xtol=xtol)
    if a == b:
        return a
    if a > b:
        a, b = b, a
    fa = f(a)
    fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise DomainError("bracket does not change sign", a=a, b=b)
    used = 2
    while (b - a) > xtol:
        used += 1
        if used > max_iter:
            raise NonConvergenceError(
                "root not localized within the iteration budget",
                a=a,
                b=b,
                xtol=xtol,
                iterations=max_iter,
            )
        m = 0.5 * (a + b)
        if m <= a or m >= b:  # bracket at floating-point resolution
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    # secant polish inside the final bracket
    x0, f0 = a, fa
    x1, f1 = b, fb
    best_x, best_f = (x0, abs(f0)) if abs(f0) < abs(f1) else (x1, abs(f1))
    for _ in range(6):
        if used >= max_iter or f1 == f0:
            break
        used += 1
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (a <= x2 <= b):
            break
        f2 = f(x2)
        if abs(f2) < best_f:
            best_x, best_f = x2, abs(f2)
        if f2 == 0.0:
            return x2
        x0, f0, x1, f1 = x1, f1, x2, f2
    return best_x


def refine_brackets(
    evaluate: Callable[[np.ndarray], np.ndarray],
    cols,
    a,
    b,
    fa,
    fb,
    xtol,
    max_iter: int = MAX_ITER,
) -> np.ndarray:
    """Refine many sign-change brackets at once; every evaluation serves all.

    Bracket j = [a_j, b_j] holds a root of function ``cols[j]`` of a family
    that ``evaluate(xs)`` tabulates, one row per x; fa and fb are its values
    at the ends, nonzero and of opposite signs.  Each step proposes one point
    per open bracket (Anderson-Bjorck regula falsi; bisection when two steps
    did not halve the bracket; kept 0.4 xtol inside the ends, so a step next
    to the root closes it), evaluates the distinct points in one call, and
    lets every point tighten every bracket that contains it.

    Returns each root: an exact zero when a step hits one, else the secant
    point of a bracket at most xtol wide (or at floating-point resolution).
    Raises :class:`NonConvergenceError` after ``max_iter`` steps.
    """
    cols = np.asarray(cols, dtype=int)
    a, b, fa, fb = (np.array(v, dtype=float, ndmin=1) for v in (a, b, fa, fb))
    xtol = np.broadcast_to(np.asarray(xtol, dtype=float), a.shape)
    if not (xtol > 0.0).all():
        raise DomainError("xtol must be positive")
    # g = sign * f is positive at a and negative at b; ga, gb are the values
    # the steps use, scaled down at an end that stays put
    sign = np.sign(fa)
    fa, fb = sign * fa, sign * fb
    if not ((fa > 0.0) & (fb < 0.0) & (a < b)).all():
        raise DomainError("bracket does not change sign")
    ga, gb = fa.copy(), fb.copy()
    root = np.full(a.shape, np.nan)
    moved = np.zeros(a.shape, dtype=int)  # end moved last step: -1 a, 1 b, 0 both
    widths = [np.full(a.shape, np.inf)] * 2  # widths one and two steps ago
    bisect = np.zeros(a.shape, dtype=bool)
    for _ in range(max_iter):
        secant = np.clip(a + (b - a) * (fa / (fa - fb)), a, b)
        j = np.flatnonzero(np.isnan(root) & (b - a > xtol))
        if not j.size:
            return np.where(np.isnan(root), secant, root)
        aj, bj = a[j], b[j]
        x = np.where(bisect[j], 0.5 * (aj + bj), aj + (bj - aj) * (ga[j] / (ga[j] - gb[j])))
        gap = np.minimum(0.4 * xtol[j], 0.25 * (bj - aj))
        x = np.clip(x, aj + gap, bj - gap)
        stuck = (x <= aj) | (x >= bj)  # bracket at floating-point resolution
        root[j[stuck]] = secant[j[stuck]]
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
        iterations=max_iter,
    )
