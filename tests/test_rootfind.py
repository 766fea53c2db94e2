"""The in-house bracketing root finder and its one-bracket case."""

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
