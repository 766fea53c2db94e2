"""The oracles against their earlier forms, bit for bit.

The proper-time G0 rule runs in ``decimal`` and the residue norm in floats;
both were mpmath arithmetic before (70 and 103 bits for G0, 53 bits for the
norm).  The mpmath forms are kept here as references: every G0 value must
keep its float bits, and every refusal its error class and details, and
nodes shared across dimensions must give the bits of a fresh call.  The
Sturm count's early stop must leave every count's sign unchanged, and the
Newton-seeded eigenvalue search must end on the doubles that bisection from
the Gershgorin bounds ends on.  All inputs are drawn from fixed seeds.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from deltagreen import bare_1d, bound_states, center, from_bound_state, residue_wavefunction
from deltagreen.errors import DeltaGreenError, TailBoundExceededError
from deltagreen import oracles
from deltagreen.oracles import DE_LEVELS, DE_REACH, QUAD_TOL, Lattice1D, g0_by_quadrature, norm_by_quadrature


def _mp_de_rule(term, dps):
    """The double-exponential rule in mpf at the working precision."""
    eps = mp.mpf(10) ** -dps

    def walk(first, stride):
        nonlocal total
        u, last = first, 0
        while abs(u) <= DE_REACH:
            g = term(u)
            total += g
            if g <= eps * total < mp.inf and g <= last:
                return
            u, last = u + stride, g
        raise TailBoundExceededError(
            "double-exponential rule: tail not negligible within its reach",
            reach=DE_REACH, dps=dps,
        )

    total = term(mp.mpf(0))
    h = mp.mpf(1)
    walk(h, h)
    walk(-h, -h)
    level = h * total
    for _ in range(DE_LEVELS):
        h /= 2
        walk(h, 2 * h)
        walk(-h, -2 * h)
        level, prev = h * total, level
        if (level - prev) ** 2 <= eps * level * level:
            return level
    raise TailBoundExceededError(
        "double-exponential rule: levels did not converge",
        levels=DE_LEVELS, dps=dps,
    )


def _mp_g0_quad_at(dim, energy, r, dps):
    with mp.workdps(dps):
        exp, sqrt = mp.exp, mp.sqrt
        e = mp.mpf(energy)
        q = mp.mpf(r) ** 2 / 4
        c = min(q, sqrt(q / -e)) if r > 0.0 else -1 / e
        k = 1 / (4 * mp.pi)

        def term(u):
            x = exp(-u)
            t = c * exp(u - x)
            kernel_t = sqrt(k * t) if dim == 1 else k if dim == 2 else k * sqrt(k / t)
            return exp(e * t - q / t) * kernel_t * (1 + x)

        return float(-_mp_de_rule(term, dps))


def _mp_g0(dim, energy, r):
    """g0_by_quadrature's two-precision guard over the mpmath rule."""
    big = _mp_g0_quad_at(dim, energy, r, 20)
    bigger = _mp_g0_quad_at(dim, energy, r, 30)
    if abs(big - bigger) > 0.5 * QUAD_TOL * min(1.0, abs(bigger)):
        raise TailBoundExceededError(
            "quadrature did not converge within the requested tolerance",
            estimate=abs(big - bigger), tol=QUAD_TOL,
        )
    return bigger


def _mp_norm(psi, points):
    """norm_by_quadrature at 15 digits of mpf: 53-bit binary arithmetic."""
    with mp.workdps(15):
        half_pi = mp.pi / 2

        def piece(a, b):
            d = (mp.mpf(b) - a) / 2

            def term(u):
                v = mp.exp(u)
                w = 1 / v
                q = mp.exp(-half_pi * abs(v - w))
                p = 1 + q
                off = 2 * d * q / p
                y = psi(float(b - off if u > 0 else a + off))
                return y * y * half_pi * (v + w) * off / p

            return _mp_de_rule(term, 15)

        return float(sum(piece(a, b) for a, b in zip(points, points[1:])))


def _outcome(func, *args):
    """The float's hex, or the refusal's class and details."""
    try:
        return float.hex(func(*args))
    except TailBoundExceededError as err:
        return type(err).__name__, err.details


# ------------------------------------------------------------------- G0


_VERIFY_CASES = [(dim, -1.0, r) for dim in (1, 2, 3) for r in (0.5, 1.0, 2.0)] + [(1, -1.0, 0.0)]
_EDGE_CASES = [
    # pinned values and the stated range
    (2, -0.25, 2.0), (3, -1.0, 1e-8), (2, -1e-30, 1.0), (1, -1e300, 0.0), (2, -1.0, 300.0),
    (1, -1.21e-66, 1.0), (3, -1.0, 3e5), (1, -1.0, 1e-35), (2, -1e-70, 1.0), (3, -1.0, 1e6),
    # every term underflows the decimal exponent range: refused as before
    (1, -1e200, 1.0),
    # CI's quadrature extremes
    (1, -1e20, 0.0), (3, -1e6, 1.0), (1, -1e-300, 1.0), (1, -1e4, 0.0),
    (2, -1e-6, 1.0), (2, -1e4, 1e-3),
]


def _random_g0_cases(count=200, seed=20261020):
    """D = 1..3, -E log-uniform in [1e-6, 1e6], r log-uniform in [1e-6, 1e2]."""
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(1, 4)), -(10.0 ** rng.uniform(-6.0, 6.0)), 10.0 ** rng.uniform(-6.0, 2.0))
            for _ in range(count)]


@pytest.mark.parametrize("dim, energy, r", _VERIFY_CASES + _EDGE_CASES + _random_g0_cases())
def test_decimal_g0_keeps_the_mpmath_bits(dim, energy, r):
    assert _outcome(g0_by_quadrature, dim, energy, r) == _outcome(_mp_g0, dim, energy, r)


@pytest.mark.parametrize("dim, energy, r", _VERIFY_CASES + _EDGE_CASES + _random_g0_cases())
def test_nodes_shared_across_dimensions_keep_the_bits_of_a_fresh_call(dim, energy, r):
    oracles._NODES.clear()
    fresh = _outcome(g0_by_quadrature, dim, energy, r)
    oracles._NODES.clear()
    for other in {1, 2, 3} - {dim}:  # the other dimensions fill the nodes first
        try:
            g0_by_quadrature(other, energy, r)
        except DeltaGreenError:  # coincident points in D >= 2, or a refusal
            pass
    assert _outcome(g0_by_quadrature, dim, energy, r) == fresh
    assert len(oracles._NODES) <= oracles.NODE_KEYS
    assert max(map(len, oracles._NODES.values())) <= 5082  # the stated bound, reached at (1, -1.21e-66, 1)


def test_node_memo_holds_its_stated_bound():
    # the widest value among the reference inputs walks 2,434 nodes at 30
    # digits; more keys than NODE_KEYS push the oldest out
    oracles._NODES.clear()
    g0_by_quadrature(2, -1e-30, 1.0)
    assert len(oracles._NODES[(-1e-30, 1.0, 30)]) == 2434
    for r in (0.5, 1.0, 2.0, 3.0):
        g0_by_quadrature(1, -1.0, r)
    assert list(oracles._NODES) == [(-1.0, r, dps) for r in (0.5, 1.0, 2.0, 3.0) for dps in (20, 30)]


# ------------------------------------------------------------------ norm


_NORM_CASES = [
    (lambda x: math.exp(-abs(x)), (-60.0, 0.0, 60.0)),
    (lambda x: math.exp(-abs(x - 0.3)), (-40.0, 0.3, 50.0)),
    (lambda x: math.sqrt(abs(x)), (-1.0, 0.0, 1.0)),
    (lambda x: abs(x) ** -0.25 if x else math.inf, (-1.0, 0.0, 1.0)),
    (lambda x: math.exp(-0.5 * x * x), (-30.0, 30.0)),
    (lambda x: 0.0, (-1.0, 2.0)),
    # squares of these integrals leave the doubles: the relative test keeps them
    (lambda x: 1e100, (0.0, 1.0)),
    (lambda x: 1e-100, (0.0, 1.0)),
    # refusals
    (lambda x: abs(x) ** -0.5 if x else math.inf, (-1.0, 0.0, 1.0)),
    (lambda x: abs(x) ** -0.5 if x else 0.0, (-1.0, 0.0, 1.0)),
    (lambda x: 1e200, (0.0, 1.0)),
    (lambda x: math.nan, (-1.0, 0.0, 1.0)),
    (lambda x: math.exp(-abs(x)), (-60.0, 60.0)),
]
_NORM_IDS = ["exp_kink", "exp_kink_off_center", "abs_kink", "end_singularity", "gaussian", "zero",
             "huge", "tiny", "non_decaying", "non_decaying_finite", "overflow", "nan", "unsplit_kink"]


@pytest.mark.parametrize("psi, points", _NORM_CASES, ids=_NORM_IDS)
def test_float_norm_keeps_the_mpmath_bits(psi, points):
    assert _outcome(norm_by_quadrature, psi, points) == _outcome(_mp_norm, psi, points)


def test_float_norm_keeps_the_mpmath_bits_on_two_sided_exponentials():
    # amplitude A and decay rates on either side of a kink at a: psi^2 has
    # its kink at a split point, and the box holds e^-40 of each tail
    rng = np.random.default_rng(20261021)
    for _ in range(100):
        a, amp = rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-3.0, 3.0)
        left, right = 10.0 ** rng.uniform(-1.0, 1.0, size=2)

        def psi(x, a=a, amp=amp, left=left, right=right):
            return amp * math.exp(-(left if x < a else right) * abs(x - a))

        points = (a - 40.0 / left, a, a + 40.0 / right)
        assert _outcome(norm_by_quadrature, psi, points) == _outcome(_mp_norm, psi, points)


def test_float_norm_keeps_the_mpmath_bits_on_residue_states():
    pair = (center(-1.0, bare_1d(-2.0)), center(1.0, bare_1d(-2.0)))
    cases = [(state, (-60.0, -1.0, 1.0, 60.0)) for state in bound_states(1, pair)]
    cases.append((bound_states(1, [center(0.0, from_bound_state(-1.0))])[0], (-60.0, 0.0, 60.0)))
    for state, points in cases:
        def psi(x, state=state):
            return residue_wavefunction(state, x)

        assert _outcome(norm_by_quadrature, psi, points) == _outcome(_mp_norm, psi, points)


# ----------------------------------------------------------------- Sturm


_ZERO_PIVOTS = [([3.0, 5.0, 4.0, 6.0], 1.0, 5.0), ([2.0, 3.0, 1.0], 1.0, 3.0), ([2.0, 3.0, 1.0], 1.0, 4.0)]


def _random_lattices(count=40, seed=20261022):
    """Site potentials with a few deep or high sites, hopping t, and shifts
    spread over the spectrum's Gershgorin interval."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 200))
        v = np.zeros(n)
        v[rng.integers(0, n, size=3)] = rng.uniform(-50.0, 10.0, size=3)
        t = 10.0 ** rng.uniform(-1.0, 2.0)
        for x in rng.uniform(v.min(), v.max() + 4.0 * t, size=5):
            out.append((v.tolist(), t, float(x)))
    return out


@pytest.mark.parametrize("v, t, x", _ZERO_PIVOTS + _random_lattices())
def test_sturm_count_stops_one_past_its_stop(v, t, x):
    full = oracles._sturm_count(v, t, x)
    for stop in {0, 1, 2, 3, max(full - 1, 0), full, full + 1}:
        assert oracles._sturm_count(v, t, x, stop) == min(full, stop + 1)


def test_lattice_spectrum_is_unchanged_by_the_early_stop(monkeypatch):
    rng = np.random.default_rng(20261023)
    layouts = [tuple(center(float(p), bare_1d(float(lam)))
                     for p, lam in zip(rng.uniform(-3.0, 3.0, 3), rng.uniform(-4.0, -1.0, 3)))
               for _ in range(4)]
    lat = Lattice1D(15.0, 601)
    stopped = [[oracles.lattice1d_spectrum(cs, lat, n) for n in (1, 2, 3)] for cs in layouts]
    full_count = oracles._sturm_count
    monkeypatch.setattr(oracles, "_sturm_count", lambda v, t, x, stop=math.inf: full_count(v, t, x))
    assert stopped == [[oracles.lattice1d_spectrum(cs, lat, n) for n in (1, 2, 3)] for cs in layouts]


@pytest.mark.parametrize("v, t, x", _ZERO_PIVOTS + _random_lattices())
def test_newton_pass_counts_as_the_full_count(v, t, x):
    below, slope = oracles._sturm_slope(v, t, x)
    assert below == oracles._sturm_count(v, t, x)
    n = len(v)
    eig = np.linalg.eigvalsh(np.diag(2.0 * t + np.array(v)) - t * (np.eye(n, k=1) + np.eye(n, k=-1)))
    if (v, t, x) in _ZERO_PIVOTS:  # r = -t or r = 0 on the way: no slope, and no raise
        assert math.isnan(slope)
    elif np.min(np.abs(eig - x)) > 1e-6 * (1.0 + abs(x)):
        # d/dx ln|det(H - x)| = sum over the eigenvalues of 1/(x - e)
        assert slope == pytest.approx(np.sum(1.0 / (x - eig)), rel=1e-7)


def _bisected_spectrum(centers, lat, n_states):
    """The earlier loop: each eigenvalue bisected on the count from the
    Gershgorin bounds to adjacent doubles."""
    v, t = oracles._lattice_hamiltonian(centers, lat)
    vals, lo, hi = [], min(v), max(v) + 4.0 * t
    for k in range(n_states):
        vals.append(oracles._bisect(lambda x: k + 0.5 - oracles._sturm_count(v, t, x, k), lo, hi))
        lo = math.nextafter(vals[-1], -math.inf)
    return vals


def _random_layouts(count=80, seed=20261024):
    """1-5 bare centers in [-4, 4], lambda in [-4, -2] (kappa >= 1: the box
    holds every ground state), 1-4 states."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 6))
        centers = tuple(center(float(p), bare_1d(float(lam)))
                        for p, lam in zip(rng.uniform(-4.0, 4.0, n), rng.uniform(-4.0, -2.0, n)))
        out.append((centers, Lattice1D(20.0, 801), int(rng.integers(1, 5))))
    return out


_VERIFY_LATTICES = [((center(0.0, bare_1d(-2.0)),), Lattice1D(20.0, points), 1) for points in (1001, 2001, 4001)]
_PAIRS = [((center(-d / 2, bare_1d(-2.0)), center(d / 2, bare_1d(-2.0))), Lattice1D(25.0, 2501), 2)
          for d in (2.0, 6.0, 10.0, 14.0)]


@pytest.mark.parametrize("centers, lat, n_states", _VERIFY_LATTICES + _random_layouts() + _PAIRS)
def test_newton_seeded_spectrum_ends_on_the_bisected_doubles(centers, lat, n_states):
    assert oracles.lattice1d_spectrum(centers, lat, n_states) == _bisected_spectrum(centers, lat, n_states)


def _closing_widths(monkeypatch, centers, lat, n_states):
    """Each closing bisection's bracket, in ulps of its result."""
    bisect, widths = oracles._bisect, []

    def spy(f, a, b):
        out = bisect(f, a, b)
        widths.append((b - a) / math.ulp(out))
        return out

    monkeypatch.setattr(oracles, "_bisect", spy)
    oracles.lattice1d_spectrum(centers, lat, n_states)
    return widths


def test_newton_seeds_verify_and_falls_back_on_a_near_degenerate_pair(monkeypatch):
    # on verify's lattices each closing spans at most 2 x 128 ulps; the pair
    # 14 apart splits by 3e-6, so Newton meets both states and the closing
    # bisects the whole bracket
    for case in _VERIFY_LATTICES:
        assert max(_closing_widths(monkeypatch, *case)) <= 256.0
    assert max(_closing_widths(monkeypatch, *_PAIRS[-1])) > 2.0**40


def test_a_zero_pivot_ends_the_newton_steps(monkeypatch):
    # a NaN slope, as a Newton point on a zero pivot gives, closes on the count
    slope = oracles._sturm_slope
    monkeypatch.setattr(oracles, "_sturm_slope", lambda v, t, x: (slope(v, t, x)[0], math.nan))
    for case in _VERIFY_LATTICES + _PAIRS:
        assert oracles.lattice1d_spectrum(*case) == _bisected_spectrum(*case)


def test_a_newton_point_off_by_more_than_128_ulps_widens_the_closing(monkeypatch):
    # a slope 1% too steep still converges, linearly, and stops some 10^4
    # ulps short: the +-128 ulp window misses and widens until it straddles
    slope = oracles._sturm_slope

    def steep(v, t, x):
        below, s = slope(v, t, x)
        return below, 1.01 * s

    monkeypatch.setattr(oracles, "_sturm_slope", steep)
    for case in _VERIFY_LATTICES:
        assert oracles.lattice1d_spectrum(*case) == _bisected_spectrum(*case)
        assert 256.0 < max(_closing_widths(monkeypatch, *case)) < 2.0**30
