"""The in-house bracketing root finder and its one-bracket case."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from deltagreen import rootfind
from deltagreen.errors import DomainError, NonConvergenceError
from deltagreen.rootfind import bracket_sign_changes, refine_brackets, refine_root


def test_bracket_scan_finds_all_crossings():
    f = lambda x: math.sin(x)
    xs = np.linspace(0.5, 9.8, 200)
    brackets = bracket_sign_changes(f, xs)
    assert len(brackets) == 3
    roots = [refine_root(f, a, b, 1e-13) for a, b in brackets]
    assert roots == pytest.approx([math.pi, 2 * math.pi, 3 * math.pi], abs=1e-12)


def test_bracket_scan_reports_exact_grid_zeros():
    f = lambda x: x * (x - 2.0)
    brackets = bracket_sign_changes(f, [-1.0, 0.0, 1.0, 2.0, 3.0])
    assert (0.0, 0.0) in brackets
    assert (2.0, 2.0) in brackets
    assert all(a == b for a, b in brackets)
    assert refine_root(f, 0.0, 0.0, 1e-12) == 0.0
    # a zero at the first grid point is reported too
    assert bracket_sign_changes(f, [0.0, 1.0, 2.0]) == [(0.0, 0.0), (2.0, 2.0)]


def test_bracket_scan_no_crossing():
    assert bracket_sign_changes(lambda x: x * x + 1.0, np.linspace(-5, 5, 50)) == []


def test_refine_root_cubic():
    f = lambda x: x**3 - 2.0
    root = refine_root(f, 1.0, 2.0, 1e-14)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)


def test_refine_root_steep_and_flat():
    # steep: sign change over a narrow wall
    root = refine_root(lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0, 1e-13)
    assert root == pytest.approx(0.3, abs=1e-12)
    # flat: quintic tangency-adjacent slope
    root = refine_root(lambda x: (x - 1.1) ** 5, 0.0, 2.0, 1e-13)
    assert root == pytest.approx(1.1, abs=1e-3)  # |f| < 1e-15 wide basin


def test_refine_root_endpoint_zeros():
    f = lambda x: x - 1.0
    assert refine_root(f, 1.0, 2.0, 1e-12) == 1.0
    assert refine_root(f, 0.0, 1.0, 1e-12) == 1.0


def test_refine_root_swapped_bracket():
    root = refine_root(lambda x: x - 0.25, 1.0, 0.0, 1e-14)
    assert root == pytest.approx(0.25, abs=1e-13)


def test_refine_root_rejects_bad_input():
    with pytest.raises(DomainError):
        refine_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(DomainError):  # a one-point bracket off the root
        refine_root(lambda x: x - 1.0, 0.5, 0.5, 1e-12)
    with pytest.raises(DomainError):
        refine_root(lambda x: x, -1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        refine_root(lambda x: x, -1.0, 1.0, -1e-3)


def test_refine_root_iteration_budget(monkeypatch):
    monkeypatch.setattr(rootfind, "MAX_ITER", 1)
    # the one allowed step lands on pi exactly and closes the bracket
    assert refine_root(lambda x: x - math.pi, 0.0, 10.0, 1e-12) == math.pi
    with pytest.raises(NonConvergenceError):
        refine_root(lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0, 1e-13)


def test_refine_root_survives_subresolution_xtol():
    # xtol below float spacing: the refinement loop must still terminate
    root = refine_root(lambda x: x - 1.0 / 3.0, 0.0, 1.0, 1e-300)
    assert root == pytest.approx(1.0 / 3.0, abs=1e-15)


def _family(xs):
    """Rows of f_k(x) = tanh(3 (k/7 - x)) + 0.1 (k/7 - x)^3, k = 0..6: each falls
    through one root at k/7; x = 1/3 is no grid point of the family."""
    d = np.arange(7) / 7.0 - np.asarray(xs)[:, None]
    return np.tanh(3.0 * d) + 0.1 * d**3


def test_refine_brackets_shares_each_evaluation():
    calls = []

    def evaluate(xs):
        calls.append(len(xs))
        return _family(xs)

    cols = np.arange(1, 7)
    a, b = (cols - 0.5) / 7.0, (cols + 0.5) / 7.0
    at = np.arange(6)
    roots = refine_brackets(evaluate, cols, a, b, _family(a)[at, cols], _family(b)[at, cols],
                            xtol=1e-13)
    assert roots == pytest.approx(cols / 7.0, abs=1e-13)
    # one call per step for all six brackets, never one point at a time
    assert len(calls) <= 12
    assert max(calls) <= 6


def test_refine_brackets_steep_and_flat():
    # regula falsi stalls on both; the bisection safeguard bounds the steps
    # at about twice bisection's
    calls = []

    def evaluate(xs):
        calls.append(len(xs))
        return np.stack([np.tanh(50.0 * (xs - 0.3)), (xs - 1.1) ** 5], axis=1)

    roots = refine_brackets(evaluate, [0, 1], [0.0, 0.0], [1.0, 2.0],
                            [math.tanh(-15.0), (-1.1) ** 5], [math.tanh(35.0), 0.9**5],
                            xtol=1e-13)
    assert roots == pytest.approx([0.3, 1.1], abs=1e-13)
    assert len(calls) <= 2 * math.ceil(math.log2(2.0 / 1e-13)) + 20


def test_refine_brackets_either_sign_exact_zero_and_resolution():
    f = lambda xs: np.stack([np.asarray(xs) - 0.25, 1.0 - 3.0 * np.asarray(xs)], axis=1)
    roots = refine_brackets(f, [0, 1], [0.0, 0.0], [1.0, 1.0], [-0.25, 1.0], [0.75, -2.0],
                            xtol=[1e-300, 1e-14])
    assert roots[0] == 0.25  # hit exactly, or closed at floating-point resolution
    assert roots[1] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def never(xs):
        raise AssertionError("an exact zero at an end needs no evaluation")

    # an exact zero at either end, of either sign change, and at both ends
    roots = refine_brackets(never, [0, 1, 0, 1], [0.25, 0.0, 0.5, 0.5],
                            [1.0, 1.0 / 3.0, 0.5, 0.5], [0.0, 1.0, 0.0, -0.0],
                            [0.75, 0.0, 0.0, 0.0], xtol=1e-12)
    assert roots.tolist() == [0.25, 1.0 / 3.0, 0.5, 0.5]


def test_refine_brackets_rejects_bad_input(monkeypatch):
    f = lambda xs: np.asarray(xs)[:, None] - 0.5
    with pytest.raises(DomainError):  # no sign change
        refine_brackets(f, [0], [0.6], [1.0], [0.1], [0.5], xtol=1e-12)
    with pytest.raises(DomainError):
        refine_brackets(f, [0], [0.0], [1.0], [-0.5], [0.5], xtol=0.0)
    monkeypatch.setattr(rootfind, "MAX_ITER", 3)
    with pytest.raises(NonConvergenceError):
        refine_brackets(lambda xs: np.tanh(50.0 * (np.asarray(xs)[:, None] - 0.3)), [0],
                        [0.0], [1.0], [math.tanh(-15.0)], [math.tanh(35.0)], xtol=1e-12)
    # the budget is MAX_ITER evaluations, and the error counts the brackets
    # left open: x - 0.5 closes on its first step, the tanh column never
    calls = []

    def two_columns(xs):
        calls.append(xs)
        return np.column_stack((np.tanh(50.0 * (xs - 0.3)), xs - 0.5))

    with pytest.raises(NonConvergenceError) as err:
        refine_brackets(two_columns, [0, 1], [0.0, 0.0], [1.0, 1.0], [math.tanh(-15.0), -0.5],
                        [math.tanh(35.0), 0.5], xtol=1e-12)
    assert len(calls) == 3
    assert err.value.details == {"iterations": 3, "open": 1}


# -- the bits of every root and of every evaluation, pinned ---------------------

def _cubes(xs):
    # convex and concave rising and falling branches: regula falsi keeps one
    # end, so Anderson-Bjorck scales the value kept at a on some and at b on
    # others; products and quotients only, which round alike in every SIMD kernel
    x = np.asarray(xs)
    cube = x * x * x
    return np.stack([cube - 0.2, 0.2 - cube, 1.0 / (1.0 + 5.0 * x) - 0.4, x * (2.0 - x) - 0.5], axis=1)


def _plateau(xs):
    # exactly 0 within 1e-3 of 0.3: a step several points in hits it
    x = np.asarray(xs)[:, None]
    return np.where(np.abs(x - 0.3) < 1e-3, 0.0, np.tanh(20.0 * (x - 0.3)))


def _shared_cell(xs):
    # three branches with their roots in one cell [0, 1]
    x = np.asarray(xs)
    return np.stack([x - 0.3, np.tanh(5.0 * (x - 0.55)), x**5 - 0.7**5], axis=1)


def _ends(f, cols, a, b):
    at = np.arange(len(cols))
    return f(a)[at, cols], f(b)[at, cols]


def _pinned_cases():
    # lopsided brackets that overlap their neighbours': each step's points
    # fall inside several of them
    six = np.arange(1, 7)
    lo6, hi6 = (six - 0.6) / 7.0, (six + 0.9) / 7.0
    zeros, ones = np.zeros(4), np.ones(4)
    return {
        "family": (_family, six, lo6, hi6, *_ends(_family, six, lo6, hi6), 1e-13),
        "steep and flat": (
            lambda xs: np.stack([np.tanh(50.0 * (xs - 0.3)), (xs - 1.1) ** 5], axis=1),
            [0, 1], [0.0, 0.0], [1.0, 2.0], [math.tanh(-15.0), (-1.1) ** 5],
            [math.tanh(35.0), 0.9**5], 1e-13),
        "shared cell": (_shared_cell, [0, 1, 2], [0.0] * 3, [1.0] * 3,
                        *_ends(_shared_cell, [0, 1, 2], np.zeros(3), np.ones(3)), 1e-13),
        "anderson-bjorck": (_cubes, [0, 1, 2, 3], zeros, ones,
                            *_ends(_cubes, [0, 1, 2, 3], zeros, ones), 1e-13),
        "zero mid-way": (_plateau, [0], [0.0], [1.0], [math.tanh(-6.0)], [math.tanh(14.0)], 1e-13),
        "resolution": (lambda xs: np.asarray(xs)[:, None] ** 2 - 2.0, [0], [1.0], [2.0],
                       [-1.0], [2.0], 1e-300),
        "xtol array": (lambda xs: np.stack([np.asarray(xs) - 0.25, 1.0 - 3.0 * np.asarray(xs)],
                                           axis=1),
                       [0, 1], [0.0, 0.0], [1.0, 1.0], [-0.25, 1.0], [0.75, -2.0],
                       [1e-300, 1e-14]),
    }


#: per case: the roots, the number of evaluate calls, and the sha256 of the
#: float.hex of the points of every call
PINNED = {
    "anderson-bjorck": (
        ["0x1.2b6b5edf6b54ap-1", "0x1.2b6b5edf6b54ap-1", "0x1.3333333333333p-2",
         "0x1.2bec333018866p-2"], 17,
        "48cdf79115be33823aff992caca068f8d0bacf47fa317266af06ef1dc6c2a85c"),
    "family": (
        ["0x1.2492492492492p-3", "0x1.2492492492492p-2", "0x1.b6db6db6db6dbp-2",
         "0x1.2492492492492p-1", "0x1.6db6db6db6db7p-1", "0x1.b6db6db6db6dbp-1"], 4,
        "def469be03beee7c15e2702d43c73d2051cc426375b7962336dba2e737209c65"),
    "resolution": (
        ["0x1.6a09e667f3bccp+0"], 7,
        "e288b23d1de301a452e377b5fbb05b08c64134c81d1f752dd531ee23526101d5"),
    "shared cell": (
        ["0x1.3333333333333p-2", "0x1.199999999999ap-1", "0x1.6666666666666p-1"], 7,
        "eb37db365581d0b189374a781f212aeea268ba509893555c8aa584468d8466af"),
    "steep and flat": (
        ["0x1.3333333333333p-2", "0x1.1999999999996p+0"], 108,
        "129587788dfe92b22d444152fe87f2d2d5811d85ab97dfad6c860bd2604e2568"),
    "xtol array": (
        ["0x1.0000000000000p-2", "0x1.5555555555555p-2"], 1,
        "819c362a21a7e5f0b26116bb2b448289762bd933bcb16e12d82d0c60f691de58"),
    "zero mid-way": (
        ["0x1.32750af2da50cp-2"], 5,
        "4f42775eac99148f368959dcf2842bbff0e0b9cfb5899a2606ba9bb6d7527403"),
}


@pytest.mark.parametrize("name", sorted(_pinned_cases()))
def test_refine_brackets_keeps_its_bits(name):
    evaluate, cols, a, b, fa, fb, xtol = _pinned_cases()[name]
    calls = []

    def recorded(xs):
        calls.append([float(x).hex() for x in xs])
        return evaluate(xs)

    roots = refine_brackets(recorded, cols, a, b, fa, fb, xtol=xtol)
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert ([float(x).hex() for x in roots], len(calls), digest) == PINNED[name]


# -- every point of a step-by-step reference, on each rule's edge cases ---------

def _anderson_bjorck(f, a, b, xtol, seen):
    """One bracket [a, b] of a scalar f refined as refine_brackets' docstring
    says, one step at a time: the points evaluated, in order, and the root.

    g = sign * f is > 0 at a and < 0 at b.  A step proposes the secant point
    of (a, ga) and (b, gb), or the midpoint after a step whose width was not
    half the width two steps before, kept min(0.4 xtol, (b - a) / 4) inside
    the ends; g there 0 is the root, > 0 moves a, < 0 moves b.  An end moved
    twice in a row scales the value kept at the other end by m = 1 - g_new/g_old
    (Anderson-Bjorck), or by 1/2 if m is not positive.  The bracket closes at
    the secant point of (a, fa) and (b, fb) once it is at most xtol wide or
    a step has no point strictly inside.  ``seen`` collects the rule edges
    the steps reach."""
    fa, fb = f(a), f(b)
    sign = 1.0 if fa > 0.0 else -1.0
    fa, fb = sign * fa, sign * fb
    ga, gb = fa, fb
    moved, width1, width2, halve, inside, points = 0, math.inf, math.inf, False, True, []
    for _ in range(rootfind.MAX_ITER):
        if not inside or not b - a > xtol:
            return points, min(max(a + (b - a) * (fa / (fa - fb)), a), b)
        if halve:
            seen.add("halving")
            x = 0.5 * (a + b)
        else:
            x = a + (b - a) * (ga / (ga - gb))
        gap = min(0.4 * xtol, 0.25 * (b - a))
        x = min(max(x, a + gap), b - gap)
        inside = a < x < b
        if not inside:
            continue
        points.append(x)
        g = sign * f(x)
        if g == 0.0:
            seen.add("zero at a step")
            return points, x
        if g > 0.0:
            if moved == -1:
                m = 1.0 - g / ga
                seen.update(["b scaled by 1/2"] * (m <= 0.0) + ["m = 0 at a"] * (m == 0.0))
                gb *= m if m > 0.0 else 0.5
            a, fa, ga, moved = x, g, g, -1
        else:
            if moved == 1:
                m = 1.0 - g / gb
                seen.update(["a scaled by 1/2"] * (m <= 0.0) + ["m = 0 at b"] * (m == 0.0))
                ga *= m if m > 0.0 else 0.5
            b, fb, gb, moved = x, g, g, 1
        width = b - a
        if width == 0.5 * width2:
            seen.add("exactly half the width")
        halve, width1, width2 = width > 0.5 * width2, width, width1
    raise AssertionError("the reference did not converge")


def _broken_line(*knots):
    xs, ys = zip(*knots)
    return lambda x: float(np.interp(x, xs, ys))


@pytest.mark.parametrize("f, edges", [
    (lambda x: x - 0.5, {"zero at a step"}),
    # flat near a: a moves twice with equal values, m = 0
    (_broken_line((0.0, 1.0), (0.8, 1.0), (1.0, -1.0)),
     {"m = 0 at a", "b scaled by 1/2", "zero at a step"}),
    (_broken_line((0.0, 1.0), (0.2, -1.0), (1.0, -1.0)), {"m = 0 at b", "a scaled by 1/2"}),
    (lambda x: x**8 - 0.5, {"halving"}),
    (_broken_line((0.0, 2.0), (0.0625, 4.0), (0.125, 3.0), (0.75, 3.0), (1.0, -2.0)),
     {"exactly half the width"}),
], ids=["zero at a step", "m = 0 at a", "m = 0 at b", "halving", "half the width"])
def test_refine_brackets_evaluates_the_points_of_the_reference(f, edges):
    seen = set()
    points, root = _anderson_bjorck(f, 0.0, 1.0, 1e-13, seen)
    assert edges <= seen
    calls = []

    def recorded(xs):
        calls.extend(float(x).hex() for x in xs)
        return np.array([[f(float(x))] for x in xs])

    got = refine_brackets(recorded, [0], 0.0, 1.0, f(0.0), f(1.0), xtol=1e-13)
    assert (calls, float(got[0]).hex()) == ([x.hex() for x in points], root.hex())


# -- refine_root as the one-bracket case of refine_brackets, against brentq ------

# monotone families with their root at c: f(c) = 0 and the sign changes there
FAMILIES = {
    "linear": lambda c, s: lambda x: s * (x - c),
    "cubic": lambda c, s: lambda x: x**3 - c**3,
    "steep tanh": lambda c, s: lambda x: math.tanh(50.0 * s * (x - c)),
    "quintic": lambda c, s: lambda x: (x - c) ** 5,
}


@st.composite
def _monotone_bracket(draw):
    """A monotone f of either orientation and a bracket [a, b] around its root."""
    family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    c = draw(st.floats(-5.0, 5.0))
    f = family(c, draw(st.floats(0.1, 100.0)))
    if draw(st.booleans()):
        f = (lambda g: lambda x: -g(x))(f)
    a = c - draw(st.floats(1e-3, 10.0))
    b = c + draw(st.floats(1e-3, 10.0))
    xtol = 10.0 ** draw(st.integers(-14, -4))
    return f, a, b, xtol


def _assert_agrees_with_brentq(root, f, a, b, xtol):
    # each lies within its own tolerance of the sign change (brentq's adds
    # 4 eps |x|); the cubic's rounding blurs that change by a few ulps
    ref = brentq(f, a, b, xtol=xtol, maxiter=1000)
    assert abs(root - ref) <= 2.0 * xtol + 16.0 * math.ulp(ref)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_monotone_bracket(), st.booleans())
def test_refine_root_agrees_with_brentq(case, swapped):
    f, a, b, xtol = case
    _assert_agrees_with_brentq(refine_root(f, *((b, a) if swapped else (a, b)), xtol), *case)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_monotone_bracket(), st.integers(2, 40))
def test_refine_root_keeps_its_evaluation_budget(case, budget):
    f, a, b, xtol = case
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    # the two ends, then one evaluation per step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootfind, "MAX_ITER", budget - 2)
        try:
            root = refine_root(counted, a, b, xtol)
        except NonConvergenceError:
            assert len(calls) <= budget
            return
    assert len(calls) <= budget
    _assert_agrees_with_brentq(root, *case)


@st.composite
def _monotone_brackets(draw):
    """1-12 monotone functions, each with its root in one of 1-4 cells: the
    brackets that share a cell see each other's points."""
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.floats(-5.0, 5.0))
        cells.append((lo, lo + draw(st.floats(1e-3, 10.0))))
    fs, a, b, xtol = [], [], [], []
    for _ in range(draw(st.integers(1, 12))):
        lo, hi = cells[draw(st.integers(0, len(cells) - 1))]
        c = lo + (hi - lo) * draw(st.floats(0.05, 0.95))
        f = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))](c, draw(st.floats(0.1, 100.0)))
        if draw(st.booleans()):
            f = (lambda g: lambda x: -g(x))(f)
        fs.append(f)
        a.append(lo)
        b.append(hi)
        xtol.append(10.0 ** draw(st.integers(-14, -4)))
    return fs, a, b, xtol


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_monotone_brackets())
def test_refine_brackets_agrees_with_brentq_on_many_brackets(case):
    fs, a, b, xtol = case
    table = lambda xs: np.array([[f(x) for f in fs] for x in xs])
    # each bracket as the evaluations so far leave it: the points strictly
    # inside tighten the end of their sign, and a 0 or a width <= xtol closes it
    sign = [1.0 if f(x) > 0.0 else -1.0 for f, x in zip(fs, a)]
    lo, hi, shut, calls = list(a), list(b), [False] * len(fs), []

    def evaluate(xs):
        assert all(np.diff(xs) > 0.0)
        assert all(any(l < x < h and not s for l, h, s in zip(lo, hi, shut)) for x in xs)
        calls.append(len(xs))
        g = table(xs)
        for j in range(len(fs)):
            inside = [(x, sign[j] * gx) for x, gx in zip(xs, g[:, j]) if lo[j] < x < hi[j]]
            ups, downs = [x for x, gx in inside if gx > 0.0], [x for x, gx in inside if gx < 0.0]
            lo[j], hi[j] = max(ups, default=lo[j]), min(downs, default=hi[j])
            shut[j] |= len(ups) + len(downs) < len(inside) or hi[j] - lo[j] <= xtol[j]
        return g

    cols = range(len(fs))
    fa, fb = [f(x) for f, x in zip(fs, a)], [f(x) for f, x in zip(fs, b)]
    roots = refine_brackets(evaluate, cols, a, b, fa, fb, xtol)
    assert len(calls) <= rootfind.MAX_ITER
    for root, f, lo_, hi_, tol in zip(roots, fs, a, b, xtol):
        _assert_agrees_with_brentq(root, f, lo_, hi_, tol)
    if calls:  # a budget one step short of the run's
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rootfind, "MAX_ITER", len(calls) - 1)
            with pytest.raises(NonConvergenceError):
                refine_brackets(table, cols, a, b, fa, fb, xtol)
