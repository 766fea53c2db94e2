"""Multi-center resolvent, bound-state search, residue factorization."""

import itertools
import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import k0 as scipy_k0

from deltagreen import (
    bare_1d,
    bound_states,
    center,
    from_bound_state,
    g0,
    green,
    m_matrix,
    renormalized_2d,
    renormalized_3d,
    renormalized_denominator,
    residue_wavefunction,
)
from deltagreen import bessel, greenfn, pointgreen, renorm
from deltagreen.errors import (
    AtPoleError,
    CoincidentPointsError,
    DeltaGreenError,
    DomainError,
    IllegalSpecError,
    NonConvergenceError,
)
from deltagreen.greenfn import ComplexEnergy, SpatialPoint
from deltagreen.oracles import Lattice1D, lattice1d_resolvent, shooting1d

# two attractive centers at -1 and +1, lambda = -2 each: energies frozen from
# the transfer-coefficient shooting oracle (see test_oracles.py)
PAIR = (center(-1.0, bare_1d(-2.0)), center(1.0, bare_1d(-2.0)))
PAIR_ENERGIES = (-1.2295650725757956, -0.6349095705470416)


def _pt(*coords):
    return SpatialPoint(tuple(float(c) for c in coords))


# ---------------------------------------------------------------- m_matrix


def test_m_matrix_single_center_is_the_denominator():
    mm = m_matrix(3, -1.0, [center((0.0, 0.0, 0.0), from_bound_state(-1.0))])
    assert mm.entries.shape == (1, 1)
    assert mm.entries[0, 0] == 0.0  # exactly at the pole
    for energy in (-0.5, -2.0, -9.0):
        mm = m_matrix(3, energy, [center((0.0, 0.0, 0.0), renormalized_3d(4 * math.pi))])
        den = renormalized_denominator(3, energy, renormalized_3d(4 * math.pi))
        assert mm.entries[0, 0] == den


def test_m_matrix_pair_at_threshold_energy():
    mm = m_matrix(1, -1.0, PAIR)
    # diagonal: 1/lambda + 1/(2 kappa) = -1/2 + 1/2 = 0
    assert mm.entries[0, 0] == 0.0
    assert mm.entries[1, 1] == 0.0
    # off-diagonal: -G0(-1; -1, +1) = e^{-2}/2
    off = 0.5 * math.exp(-2.0)
    assert mm.entries[0, 1].real == pytest.approx(off, rel=1e-15)
    assert np.linalg.det(mm.entries).real == pytest.approx(-(off**2), rel=1e-14)


def test_m_matrix_wide_separation_factorizes():
    far = (center(-25.0, bare_1d(-3.0)), center(25.0, bare_1d(-3.0)))
    det = np.linalg.det(m_matrix(1, -1.0, far).entries).real
    diag = 1.0 / -3.0 + 0.5  # = 1/6
    assert det == pytest.approx(diag * diag, rel=1e-20)


def test_m_matrix_symmetry():
    rng = np.random.default_rng(20240815)
    pts = rng.normal(size=(4, 3))
    cs = [center(tuple(p), from_bound_state(-float(i + 1))) for i, p in enumerate(pts)]
    mm = m_matrix(3, complex(-2.0, 0.3), cs)
    assert np.array_equal(mm.entries, mm.entries.T)


# Separations on one axis: dyadic positions subtract exactly, and at
# kappa = 0.5, 1, 2 the products kappa*r run from ~1e-6 to 700 exactly too,
# so the reference sees the same r and kappa*r as the kernel.
AXIS_POSITIONS = (0.0, 2.0**-19, 2.0**-10, 0.25, 1.0, 3.0, 17.0, 101.0, 350.0)


def _g0_reference(dim: int, e: ComplexEnergy, r: float) -> complex:
    """Closed forms at 40 digits: exp in D = 1, 3, mpmath Bessel functions in D = 2."""
    with mp.workdps(40):
        r = mp.mpf(r)
        if e.retarded and e.value.real > 0.0:
            k = mp.sqrt(mp.mpf(e.value.real))
            kap = -1j * k
        else:
            kap = mp.sqrt(-mp.mpc(e.value.real, e.value.imag))
        if dim == 1:
            return complex(-mp.exp(-kap * r) / (2 * kap))
        if dim == 3:
            return complex(-mp.exp(-kap * r) / (4 * mp.pi * r))
        if e.retarded and e.value.real > 0.0:
            return complex(-0.25j * mp.hankel1(0, k * r))
        return complex(-mp.besselk(0, kap * r) / (2 * mp.pi))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("branch", ["real", "complex_step", "retarded"])
def test_m_matrix_entries_match_independent_closed_forms(dim, branch):
    cs = [center((p,) + (0.0,) * (dim - 1), from_bound_state(-1.0)) for p in AXIS_POSITIONS]
    for kap in (0.5, 1.0, 2.0):
        e = {
            "real": ComplexEnergy(-kap * kap),
            # -(kappa (1 + 1e-20 i))^2, where the residues' step in ln kappa goes
            "complex_step": ComplexEnergy(complex(-kap * kap, -2e-20 * kap * kap)),
            "retarded": ComplexEnergy(kap * kap, retarded=True),
        }[branch]
        m = m_matrix(dim, e, cs).entries
        for c, row in zip(cs, m.diagonal()):
            assert row == renormalized_denominator(dim, e, c.coupling)
        for i, j in itertools.combinations(range(len(cs)), 2):
            want = -_g0_reference(dim, e, AXIS_POSITIONS[j] - AXIS_POSITIONS[i])
            assert m[i, j] == m[j, i]
            assert abs(m[i, j] - want) <= 1e-13 * abs(want), (kap, i, j)
            if branch == "complex_step" and abs(want.imag) > 1e-280:
                # the part dM/dE is read from, wherever it is not subnormal
                assert abs(m[i, j].imag - want.imag) <= 1e-13 * abs(want.imag), (kap, i, j)


def test_m_matrix_makes_no_scalar_g0_call(monkeypatch):
    calls = []
    scalar_g0 = greenfn.g0

    def counting(*args, **kwargs):
        calls.append(args)
        return scalar_g0(*args, **kwargs)

    monkeypatch.setattr(pointgreen, "g0", counting)
    monkeypatch.setattr(greenfn, "g0", counting)
    rng = np.random.default_rng(64)
    cs = [center(tuple(p), from_bound_state(-1.0)) for p in rng.uniform(0, 10, (64, 3))]
    m_matrix(3, -1.7, cs)
    assert calls == []
    green(3, -1.7, _pt(0.1, 0.2, 0.3), _pt(5.0, 5.0, 5.0), cs)
    assert len(calls) == 1  # G0(x, y) itself; the source vectors are one kernel call each


def test_m_matrix_and_scan_make_no_scalar_denominator_call(monkeypatch):
    calls = []
    scalar = renorm.renormalized_denominator

    def counting(*args, **kwargs):
        calls.append(args)
        return scalar(*args, **kwargs)

    monkeypatch.setattr(renorm, "renormalized_denominator", counting)
    monkeypatch.setattr(pointgreen, "renormalized_denominator", counting)
    rng = np.random.default_rng(65)
    cs = [
        center(tuple(p), from_bound_state(-1.0) if i % 2 else renormalized_3d(3.0))
        for i, p in enumerate(rng.uniform(0, 10, (64, 3)))
    ]
    m_matrix(3, -1.7, cs)
    m_matrix(3, complex(-1.7, 0.4), cs)
    green(3, -1.7, _pt(0.1, 0.2, 0.3), _pt(5.0, 5.0, 5.0), cs)
    line = [center(2.0 * i, bare_1d(-1.0) if i % 2 else from_bound_state(-0.5)) for i in range(8)]
    assert bound_states(1, line, method="scan")
    assert calls == []


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scan_eigenvalues_are_those_of_m_matrix(dim):
    # the scan counts states from the same M(-kappa^2) that m_matrix returns
    rng = np.random.default_rng(40 + dim)
    other = {1: bare_1d(-1.3), 2: renormalized_2d(-6.0, 1.0), 3: renormalized_3d(9.0)}[dim]
    cs = [center(tuple(p), other if i % 2 else from_bound_state(-0.5 - 0.2 * i))
          for i, p in enumerate(rng.uniform(0.0, 3.0, (6, dim)))]
    consts = renorm.coupling_constants(dim, [c.coupling for c in cs])
    pairs, r = pointgreen._pair_distances(pointgreen._positions(cs))
    kappas = np.geomspace(0.03, 30.0, 9)
    grid = pointgreen._eigenvalues(dim, consts, pairs, r, kappas)
    for kap, row in zip(kappas, grid):
        want = np.linalg.eigvalsh(m_matrix(dim, -kap * kap, cs).entries).tobytes()
        assert pointgreen._eigenvalues(dim, consts, pairs, r, np.array([kap]))[0].tobytes() == want
        assert row.tobytes() == want, kap


@pytest.mark.parametrize("dim", [1, 3])
def test_green_reciprocity_many_centers(dim):
    rng = np.random.default_rng(256 + dim)
    side = math.ceil(256 ** (1.0 / dim))
    grid = np.meshgrid(*[np.arange(side)] * dim, indexing="ij")
    sites = np.stack(grid, -1).reshape(-1, dim)[:256]
    pts = 1.5 * sites + rng.uniform(-0.3, 0.3, sites.shape)
    coupling = bare_1d(-0.5) if dim == 1 else renormalized_3d(1.0)
    cs = [center(tuple(p), coupling) for p in pts]
    assert len(cs) == 256
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    for energy in (-1.3, ComplexEnergy(0.8, retarded=True)):
        for _ in range(3):
            x, y = _pt(*rng.uniform(lo, hi)), _pt(*rng.uniform(lo, hi))
            gxy = green(dim, energy, x, y, cs).value
            gyx = green(dim, energy, y, x, cs).value
            scale = max(abs(gxy), abs(g0(dim, energy, x, y).value))
            assert abs(gxy - gyx) <= 1e-12 * scale


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernels_are_real_where_kappa_is(dim):
    # one dtype rule for the array kernels: float64 at a real kappa = sqrt(-E)
    # (E <= 0 on the real axis), complex128 at complex or retarded E
    cs = [center((p,) + (0.0,) * (dim - 1), from_bound_state(-1.0)) for p in (0.0, 1.0, 3.0)]
    r = np.array([0.5, 2.0])
    for e, want in ((ComplexEnergy(-1.7), np.float64),
                    (ComplexEnergy(complex(-1.0, 0.4)), np.complex128),
                    (ComplexEnergy(complex(-1.7, -3.4e-20)), np.complex128),
                    (ComplexEnergy(2.0, retarded=True), np.complex128)):
        assert m_matrix(dim, e, cs).entries.dtype == want
        assert greenfn.g0_kernel(dim, e, r).dtype == want
        if not e.retarded:  # K0 of the retarded -i k r is off its domain
            assert bessel.k0(e.kappa * r).dtype == want


# ------------------------------------------------------------------- green


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_green_real_solve_matches_a_complex_solve(dim):
    # at real E, M(E) is real and green solves it in real arithmetic
    rng = np.random.default_rng(70 + dim)
    cs = [center(tuple(p), from_bound_state(-0.5 - 0.2 * i))
          for i, p in enumerate(rng.uniform(0.0, 3.0, (6, dim)))]
    pos = np.array([c.position.coords for c in cs])
    x, y = (_pt(*p) for p in rng.uniform(-1.0, 4.0, (2, dim)))
    for energy in (-0.05, -0.37, -2.9):
        m = m_matrix(dim, energy, cs).entries
        assert m.dtype == np.float64
        gx, gy = (greenfn.g0_kernel(dim, energy, np.linalg.norm(pos - np.array(p.coords), axis=1))
                  for p in (x, y))
        want = g0(dim, energy, x, y).value + gx @ np.linalg.solve(m.astype(complex), gy)
        got = green(dim, energy, x, y, cs).value
        assert abs(got - want) <= 1e-12 * abs(want), energy


def test_green_single_center_closed_value():
    # G0 = -1/4, D = -1/4, correction = (1/16)/(-1/4) = -1/4
    val = green(1, -4.0, _pt(0.0), _pt(0.0), [center(0.0, bare_1d(-2.0))])
    assert val.value == -0.5
    assert val.value.imag == 0.0


def test_green_empty_centers_is_free():
    x, y = _pt(0.4, -0.1), _pt(-0.2, 0.6)
    assert green(2, -1.3, x, y, []).value == g0(2, -1.3, x, y).value


def test_green_weak_coupling_first_order():
    lam = -1e-6
    x, y, a = _pt(0.5), _pt(-0.8), 0.0
    full = green(1, -2.0, x, y, [center(a, bare_1d(lam))]).value.real
    free = g0(1, -2.0, x, y).value.real
    first = lam * g0(1, -2.0, x, _pt(a)).value.real * g0(1, -2.0, _pt(a), y).value.real
    assert abs(full - free - first) < 2.0 * abs(lam * first)


def test_green_matches_lattice_resolvent():
    lat = Lattice1D(half_width=20.48, points=4097)
    cs = [center(0.0, bare_1d(-2.0))]
    for x, y in ((0.3, -0.2), (1.0, 1.0), (-2.0, 0.5)):
        exact = green(1, -2.0, _pt(x), _pt(y), cs).value.real
        grid = lattice1d_resolvent(cs, lat, -2.0, x, y)
        assert grid == pytest.approx(exact, abs=1e-3)


def test_green_exchange_symmetric():
    rng = np.random.default_rng(42)
    cs3 = [
        center((0.0, 0.0, 0.0), from_bound_state(-1.0)),
        center((1.5, 0.0, 0.0), from_bound_state(-0.5)),
    ]
    for _ in range(20):
        x = _pt(*rng.normal(size=3))
        y = _pt(*rng.normal(size=3))
        e = complex(-rng.uniform(0.3, 4.0), rng.uniform(-1.0, 1.0))
        assert green(3, e, x, y, cs3).value == pytest.approx(
            green(3, e, y, x, cs3).value, rel=1e-14
        )


def test_green_real_below_spectrum():
    val = green(1, -3.0, _pt(0.2), _pt(0.9), PAIR).value
    assert val.imag == 0.0
    assert val.real < 0.0


def test_green_raises_at_pole():
    with pytest.raises(AtPoleError):
        green(1, -1.0, _pt(0.3), _pt(0.4), [center(0.0, bare_1d(-2.0))])
    with pytest.raises(AtPoleError):
        green(1, PAIR_ENERGIES[0], _pt(0.3), _pt(0.4), PAIR)


def _uniform_layout(n: int) -> list:
    """n centers binding at -1, uniform in a 3D box of edge 2 n^(1/3)."""
    pts = np.random.default_rng(0).uniform(0.0, 2.0 * n ** (1.0 / 3.0), size=(n, 3))
    return [center(tuple(p), from_bound_state(-1.0)) for p in pts]


@pytest.mark.parametrize("n", [250, 400])
def test_green_many_centers_has_no_false_pole(n):
    # cond(M) is 1e3 to 1e4 here, while det M and the product of its row
    # maxima both underflow: a determinant test read all four as poles
    cs = _uniform_layout(n)
    x, y = _pt(0.1, 0.2, 0.3), _pt(1.0, 0.5, -0.2)
    for energy in (-2.0, ComplexEnergy(1.5, retarded=True)):
        gxy = green(3, energy, x, y, cs).value
        gyx = green(3, energy, y, x, cs).value
        assert np.isfinite(gxy) and gxy != 0.0
        assert abs(gxy - gyx) <= 1e-9 * abs(gxy)


def test_green_pole_at_a_node_of_the_state():
    # y = 0 is the node of the pair's odd state, so G0(a_j, y) has no part
    # along its null vector; the probe column still sees the pole
    odd = bound_states(1, PAIR)[1].energy
    assert odd == pytest.approx(PAIR_ENERGIES[1], abs=1e-10)
    with pytest.raises(AtPoleError) as err:
        green(1, odd * (1.0 + 1e-14), _pt(0.3), _pt(0.0), PAIR)
    assert err.value.details["amplification"] >= 1e12


# a center bound far more weakly or strongly than its neighbour (rows of M(E)
# 1e12 to 1e17 apart in size) only decouples: G is the determinant test's value
BADLY_SCALED = [
    (1, -2.0, (0.1,), (0.5,), [(0.0,), from_bound_state(-1e-30)], -0.318669341524275),
    (1, -2.0, (0.1,), (0.5,), [(0.0,), from_bound_state(-1e-24)], -0.3186693415244768),
    (3, -2.0, (0.1, 0.2, 0.3), (1.0, 0.5, -0.2), [(0.0, 0.0, 0.0), from_bound_state(-1e30)],
     -0.05989483378085064),
    (3, -2.0, (0.1, 0.2, 0.3), (1.0, 0.5, -0.2), [(0.0, 0.0, 0.0), renormalized_3d(1e-16)],
     -0.05989483378085074),
    (3, ComplexEnergy(1.5, retarded=True), (0.1, 0.2, 0.3), (1.0, 0.5, -0.2),
     [(0.0, 0.0, 0.0), renormalized_3d(1e-16)], 0.036322751733094745 + 0.007254734248941977j),
]


@pytest.mark.parametrize(
    "dim, energy, x, y, first, want",
    BADLY_SCALED,
    ids=["1d-eb-1e-30", "1d-eb-1e-24", "3d-eb-1e30", "3d-lambdaR-1e-16", "3d-lambdaR-1e-16-retarded"],
)
def test_green_badly_scaled_rows_are_no_pole(dim, energy, x, y, first, want):
    cs = [center(*first), center((1.0,) + (0.0,) * (dim - 1), from_bound_state(-1.0))]
    assert green(dim, energy, _pt(*x), _pt(*y), cs).value == pytest.approx(want, rel=1e-14)


@st.composite
def _near_pole_cases(draw):
    """A random layout and an energy: real, complex, retarded, or within a
    relative 1e-16..1e-6 of one of its bound states (found for N <= 6).  Off
    the poles, one center in four binds 1e30 times weaker or stronger than
    the rest."""
    dim = draw(st.integers(1, 3))
    n = draw(st.sampled_from([1, 2, 3, 4, 6, 16, 64, 64, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = math.ceil(round(n ** (1.0 / dim), 9))
    sites = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"), -1)
    sites = sites.reshape(-1, dim)[rng.choice(side**dim, size=n, replace=False)]
    pts = draw(st.floats(0.6, 3.0)) * (sites + rng.uniform(-0.25, 0.25, sites.shape))
    kind = draw(st.sampled_from(["real", "complex", "retarded", "pole"]))
    e_b = -rng.uniform(0.25, 2.0, n)
    if kind != "pole":
        e_b[0] *= draw(st.sampled_from([1.0, 1.0, 1e-30, 1e30]))
    cs = [center(tuple(p), from_bound_state(e)) for p, e in zip(pts, e_b)]
    if kind == "pole" and n <= 6:
        states = bound_states(dim, cs, method="scan")
        if states:
            e_b = states[draw(st.integers(0, len(states) - 1))].energy
            return dim, cs, e_b * (1.0 + draw(st.sampled_from([0.0, 1e-16, 1e-14, 1e-12, 1e-6])))
    if kind == "complex":
        return dim, cs, complex(draw(st.floats(-4.0, 4.0)), draw(st.floats(0.01, 2.0)))
    if kind == "retarded":
        return dim, cs, ComplexEnergy(draw(st.floats(0.01, 4.0)), retarded=True)
    return dim, cs, draw(st.floats(-4.0, -0.05))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=_near_pole_cases())
def test_every_pole_is_a_singular_m(case):
    dim, cs, energy = case
    x = _pt(*([0.37] * dim))
    y = _pt(*([-0.41] * dim))
    try:
        green(dim, energy, x, y, cs)
    except AtPoleError:
        # M is singular, and stays so with its rows equilibrated: a row of
        # another size alone is no pole
        m = m_matrix(dim, energy, cs).entries
        rows = np.abs(m).sum(axis=1, keepdims=True)
        for a in (m, m / np.where(rows > 0.0, rows, 1.0)):  # a zero row stays zero
            s = np.linalg.svd(a, compute_uv=False)
            assert s[-1] <= 1e-8 * s[0]


def test_green_2d_single_center_at_threshold_is_a_domain_error():
    # D(E) = -ln(kappa/kappa_B)/(2 pi) diverges at E = 0; no center pair's
    # kernel call raises first when there is only one center
    with pytest.raises(DomainError):
        green(2, ComplexEnergy(0.0, retarded=True), _pt(1.0, 0.0), _pt(0.5, 0.0),
              [center((0.0, 0.0), from_bound_state(-1.0))])


def test_green_pole_flips_sign_of_det():
    det_lo = np.linalg.det(m_matrix(1, -1.0 - 1e-3, [center(0.0, bare_1d(-2.0))]).entries).real
    det_hi = np.linalg.det(m_matrix(1, -1.0 + 1e-3, [center(0.0, bare_1d(-2.0))]).entries).real
    assert det_lo * det_hi < 0.0


# ------------------------------------------------ one solve per source point


def _forget_last_solve():
    pointgreen._last_solve = (None, None)


def _count_solves(monkeypatch) -> dict:
    """Count the M(E) assemblies and solves green makes from here on."""
    calls = {"m_matrix": 0, "solve": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(pointgreen, "m_matrix", counting("m_matrix", pointgreen.m_matrix))
    monkeypatch.setattr(pointgreen.np.linalg, "solve", counting("solve", pointgreen.np.linalg.solve))
    _forget_last_solve()
    return calls


def test_green_tabulation_assembles_and_solves_once(monkeypatch):
    calls = _count_solves(monkeypatch)
    pts = [(0.0, 0.0, 0.0), (1.3, 0.2, -0.4), (-0.7, 1.1, 0.5), (0.4, -1.2, 0.9)]
    cs = [center(p, from_bound_state(-1.0 - 0.25 * i)) for i, p in enumerate(pts)]
    e, y = complex(-0.8, 0.3), _pt(0.2, 0.3, -0.6)
    xs = [_pt(0.1 * i, 1.0 - 0.3 * i, 0.5) for i in range(8)]
    values = [green(3, e, x, y, cs).value for x in xs]
    assert calls == {"m_matrix": 1, "solve": 1}
    for x, v in zip(xs, values):  # a fresh solve at every point gives the same bits
        _forget_last_solve()
        assert green(3, e, x, y, cs).value == v
    _forget_last_solve()
    green(3, e, xs[0], y, cs)
    calls.update(m_matrix=0, solve=0)

    moved = cs[:1] + [center((1.3, 0.2, -0.39), cs[1].coupling)] + cs[2:]
    for energy, source, layout in [
        (complex(-0.8, 0.31), y, cs),
        (e, _pt(0.2, 0.3, -0.61), cs),
        (e, y, cs[:3] + [center(pts[3], from_bound_state(-1.8))]),
        (e, y, moved),
    ]:
        before = calls["m_matrix"]
        green(3, energy, xs[0], source, layout)
        assert calls["m_matrix"] == before + 1
        green(3, e, xs[0], y, cs)
    # the caller's list mutated in place is another layout
    before = calls["m_matrix"]
    cs[2] = center((-0.7, 1.1, 0.6), cs[2].coupling)
    green(3, e, xs[1], y, cs)
    assert calls["m_matrix"] == before + 1
    assert calls["solve"] == calls["m_matrix"]
    # equal centers built afresh are the same layout
    green(3, e, xs[2], y, [center(c.position, c.coupling) for c in cs])
    assert calls["m_matrix"] == before + 1


def test_green_reuse_keeps_every_error(monkeypatch):
    calls = _count_solves(monkeypatch)
    single = [center(0.0, bare_1d(-2.0))]
    for _ in range(3):  # a pole is never kept
        with pytest.raises(AtPoleError):
            green(1, -1.0, _pt(0.3), _pt(0.4), single)
    assert calls == {"m_matrix": 3, "solve": 3}
    cs = [center((0.0, 0.0), from_bound_state(-1.0)), center((1.0, 0.5), from_bound_state(-2.0))]
    y = _pt(0.3, -0.2)
    green(2, -0.7, _pt(0.5, 0.5), y, cs)
    with pytest.raises(IllegalSpecError):
        green(2, -0.7, _pt(0.5), y, cs)
    with pytest.raises(CoincidentPointsError):
        green(2, -0.7, y, y, cs)
    with pytest.raises(CoincidentPointsError):
        green(2, -0.7, _pt(1.0, 0.5), y, cs)
    assert calls == {"m_matrix": 4, "solve": 4}


def test_green_reuse_across_threads_never_mixes_sources():
    cs = [center((1.1 * i, 0.3 * i), from_bound_state(-1.0 - 0.1 * i)) for i in range(6)]
    sources = [_pt(-1.0 - 0.5 * t, 0.7) for t in range(6)]
    xs = [_pt(0.5 + 0.25 * i, -0.4) for i in range(8)]
    want = {}
    for t, y in enumerate(sources):
        _forget_last_solve()
        want[t] = [green(2, -0.9, x, y, cs).value for x in xs]
    got, errors = {}, []

    def tabulate(t):
        try:
            got[t] = [[green(2, -0.9, x, sources[t], cs).value for x in xs] for _ in range(30)]
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=tabulate, args=(t,)) for t in range(len(sources))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    for t in want:
        assert all(rows == want[t] for rows in got[t])


def _signed_zero(v: float) -> float:
    return math.copysign(0.0, -1.0) if v == 0.0 else v


@st.composite
def _reuse_cases(draw):
    """A layout of 1-8 distinct centers in D = 1..3, an energy (real or
    retarded with Im E = +-0.0, or complex), a source y with zero
    coordinates, and a few field points x."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    coord = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    pts = [
        (1.25 * i + draw(st.floats(-0.5, 0.5)),) + tuple(draw(coord) for _ in range(dim - 1))
        for i in range(n)
    ]
    couplings = [draw(st.sampled_from(
        [from_bound_state(-0.6), from_bound_state(-2.5)]
        + {1: [bare_1d(-1.5), bare_1d(0.8)],
           2: [renormalized_2d(0.7, 1.3)],
           3: [renormalized_3d(6.0), renormalized_3d(-3.0)]}[dim]
    )) for _ in range(n)]
    kind = draw(st.sampled_from(["real", "complex", "retarded"]))
    zero = draw(st.sampled_from([0.0, -0.0]))
    if kind == "real":
        energy = ComplexEnergy(complex(draw(st.floats(-6.0, -0.05)), zero))
    elif kind == "retarded":
        energy = ComplexEnergy(complex(draw(st.floats(0.05, 6.0)), zero), retarded=True)
    else:
        energy = complex(draw(st.floats(-4.0, 4.0)),
                         draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 3.0)))
    y = tuple(draw(coord) for _ in range(dim))
    xs = [tuple(draw(st.floats(-3.0, 12.0)) for _ in range(dim)) for _ in range(3)]
    return dim, pts, couplings, energy, y, xs


def _hex(f) -> tuple:
    try:
        v = f().value
    except DeltaGreenError as exc:
        return (type(exc).__name__,)
    return v.real.hex(), v.imag.hex()


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=_reuse_cases(), order=st.randoms(use_true_random=False))
def test_green_reuse_is_bit_identical_to_a_fresh_solve(case, order):
    dim, pts, couplings, energy, y, xs = case
    e = ComplexEnergy.of(energy)
    # keys that compare equal to the first: Im E and the zeros of y and of
    # the center positions of the other sign, fresh but equal centers
    flipped = ComplexEnergy(complex(e.value.real, -e.value.imag), e.retarded)
    energies = [e, flipped if e.value.imag == 0.0 else e]
    sources = [_pt(*y), _pt(*map(_signed_zero, y))]
    layouts = [[center(p, c) for p, c in zip(pts, couplings)],
               [center(tuple(map(_signed_zero, p)), c) for p, c in zip(pts, couplings)]]
    calls = [(en, src, cs, _pt(*x)) for en in energies for src in sources
             for cs in layouts for x in xs]

    def run(call):
        en, src, cs, x = call
        return _hex(lambda: green(dim, en, x, src, cs))

    _forget_last_solve()
    grouped = [run(c) for c in calls]  # consecutive calls share equal keys
    shuffled = list(range(len(calls)))
    order.shuffle(shuffled)
    fresh = {}
    for i in shuffled:
        _forget_last_solve()
        fresh[i] = run(calls[i])
    assert grouped == [fresh[i] for i in range(len(calls))]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=_reuse_cases())
def test_green_reciprocity_and_m_symmetry_over_random_layouts(case):
    dim, pts, couplings, energy, y, xs = case
    cs = [center(p, c) for p, c in zip(pts, couplings)]
    m = m_matrix(dim, energy, cs).entries
    assert np.array_equal(m, m.T)
    x, y = _pt(*xs[0]), _pt(*y)
    try:
        gxy = green(dim, energy, x, y, cs).value
    except DeltaGreenError as exc:
        with pytest.raises(type(exc)):
            green(dim, energy, y, x, cs)
        return
    gyx = green(dim, energy, y, x, cs).value
    scale = max(abs(gxy), abs(gyx), abs(g0(dim, energy, x, y).value))
    assert abs(gxy - gyx) <= 1e-12 * scale


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(case=_reuse_cases(), k=st.floats(0.3, 2.5))
def test_green_retarded_is_epsilon_limit_with_centers(case, k):
    """green at E = k^2 + i eps approaches the retarded value at first order."""
    dim, pts, couplings, _, y, xs = case
    cs = [center(p, c) for p, c in zip(pts, couplings)]
    x, y = _pt(*xs[0]), _pt(*y)
    try:
        target = green(dim, ComplexEnergy(complex(k * k), retarded=True), x, y, cs).value
    except DeltaGreenError:
        return  # x or y on a center in D >= 2
    errs = [abs(green(dim, complex(k * k, eps), x, y, cs).value - target)
            for eps in (1e-6, 1e-8)]
    assert errs[1] <= 1e-6 * max(1.0, abs(target))
    # first order in eps: shrinking eps by 100 shrinks the gap by ~100
    assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.25)


# ------------------------------------------------------------ bound states


def test_bound_state_1d_exact():
    states = bound_states(1, [center(0.0, bare_1d(-2.0))])
    assert len(states) == 1
    assert states[0].energy == -1.0
    assert states[0].kappa == 1.0
    assert bound_states(1, [center(0.0, bare_1d(2.0))]) == []


def test_bound_state_2d_transmutation():
    states = bound_states(2, [center((0.0, 0.0), renormalized_2d(-4.0 * math.pi, 1.0))])
    assert len(states) == 1
    assert states[0].energy == pytest.approx(-math.exp(-1.0), rel=1e-15)


def test_bound_state_3d_requires_positive_lambda_r():
    binds = bound_states(3, [center((0, 0, 0), renormalized_3d(4.0 * math.pi))])
    assert len(binds) == 1
    assert binds[0].energy == pytest.approx(-1.0, rel=1e-15)
    assert bound_states(3, [center((0, 0, 0), renormalized_3d(-4.0 * math.pi))]) == []


def test_bound_state_scan_agrees_with_closed_form():
    auto = bound_states(1, [center(0.0, bare_1d(-2.0))])
    scan = bound_states(1, [center(0.0, bare_1d(-2.0))], method="scan")
    assert len(scan) == 1
    assert scan[0].energy == pytest.approx(auto[0].energy, abs=1e-12)


def test_bound_state_pair_matches_shooting_oracle():
    states = bound_states(1, PAIR)
    assert [s.energy for s in states] == pytest.approx(PAIR_ENERGIES, abs=1e-10)


def test_bound_state_window_filters():
    assert bound_states(1, [center(0.0, bare_1d(-2.0))], search=(-0.25, -0.2)) == []
    only_top = bound_states(1, PAIR, search=(-1.0, -0.3))
    assert len(only_top) == 1
    assert only_top[0].energy == pytest.approx(PAIR_ENERGIES[1], abs=1e-10)


def test_default_window_stops_where_kappa_squared_leaves_the_normal_doubles():
    # kappa_lo = 1e-3 sqrt(1e-320) squares to 0; the window floor 2^-511 keeps
    # E_max = -2^-1022, and the closed form still reports its subnormal E_B
    weak = center(0.0, from_bound_state(-1e-320))
    assert pointgreen._search_window([-1e-320], None)[1] == -(2.0**-1022)
    assert [s.energy for s in bound_states(1, [weak])] == [-1e-320]
    # a scan that finds no state of centers that each bind says so: the one
    # weak center, or two of them, bind a state below the window's floor
    for cs in ([weak], [weak, center(1.0, from_bound_state(-1e-320))]):
        with pytest.raises(DomainError) as err:
            bound_states(1, cs, method="scan")
        assert err.value.details == {"e_b": -1e-320}
    # a strong neighbour binds the pair's only state, in the window (a second
    # needs a distance near 1e160); the scan, default or given window, finds it
    pair = [center(1.0, from_bound_state(-1.0)), weak]
    assert [s.energy for s in bound_states(1, pair, method="scan")] == [-1.0]
    states = bound_states(1, pair, search=(-16.0, -(2.0**-1022)))
    assert [s.energy for s in states] == [-1.0]
    # windows whose floor is a normal double are unchanged
    assert pointgreen._search_window([-1.0], None) == (-16.0, -1e-6)


def test_default_window_check_needs_every_center_above_its_top():
    # a center that binds no state of its own implies none: [] stays an answer
    assert bound_states(3, [center((0.0, 0.0, 0.0), renormalized_3d(-1.0))], method="scan") == []
    # two weak 3D centers 1 apart bind a state near -0.32, which the scan finds
    weak = [center((0.0, 0.0, 0.0), from_bound_state(-1e-320)),
            center((1.0, 0.0, 0.0), from_bound_state(-1e-320))]
    assert len(bound_states(3, weak)) == 1


def _triangle(scale=1.0):
    # three eb = -1 centers in 3D on an equilateral triangle of side 1.2 sqrt(3);
    # lengths / sqrt(scale) and E_B * scale multiply every energy by scale
    r = 1.2 / math.sqrt(scale)
    return [center((r * math.cos(a), r * math.sin(a), 0.0), from_bound_state(-scale))
            for a in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]


def _square():
    return [center((x, y, 0.0), from_bound_state(-1.0)) for x in (0.0, 1.5) for y in (0.0, 1.5)]


def _multiplets(states):
    energies = [s.energy for s in states]
    return [(e, energies.count(e)) for e in sorted(set(energies))]


@pytest.mark.parametrize("centers, scale, want", [
    (_triangle(), 1.0, [(-1.20599, 1), (-0.86571, 2)]),
    (_square(), 1.0, [(-1.54034, 1), (-0.87452, 2), (-0.33419, 1)]),
    # the pair's two roots differ by ulps of 8.7e5, far above tol = 1e-12
    (_triangle(1e6), 1e6, [(-1.20599, 1), (-0.86571, 2)]),
], ids=["triangle", "square", "deep-triangle"])
def test_symmetric_layouts_keep_their_degenerate_states(centers, scale, want):
    # det M touches zero without a sign change at a pair; each branch of M
    # crosses zero once, so the pair is two states at one shared energy
    got = _multiplets(bound_states(3, centers, method="scan"))
    assert [n for _, n in got] == [n for _, n in want]
    assert [e / scale for e, _ in got] == pytest.approx([e for e, _ in want], abs=1e-5)


def test_degenerate_pair_residue_sums_over_its_states():
    cs = _triangle()
    pair = [s for s in bound_states(3, cs, method="scan") if s.energy > -1.0]
    assert len(pair) == 2 and pair[0].energy == pair[1].energy
    e_b = pair[0].energy
    x, y = (0.4, -0.3, 0.2), (-0.7, 0.9, -0.1)
    deltas = np.array([1e-3, 1e-4, 1e-5])
    probes = [abs(e_b) * d * green(3, e_b + abs(e_b) * d, _pt(*x), _pt(*y), cs).value.real
              for d in deltas]
    want = sum(residue_wavefunction(s, x) * residue_wavefunction(s, y) for s in pair)
    assert np.polyfit(deltas, probes, 2)[-1] == pytest.approx(want, rel=1e-6)
    # each state alone is normalized: c^T M' c = 1 per state, 0 across the
    # pair, with M' from a complex step in E (exact at |E_B| ~ 1)
    mp_ = m_matrix(3, complex(e_b, 1e-20), cs).entries.imag / 1e-20
    c = np.stack([s.residue_vector for s in pair], axis=1)
    assert c.T @ mp_ @ c == pytest.approx(np.eye(2), abs=1e-12)


def _uniform_3d(n):
    rng = np.random.default_rng(0)
    return [center(tuple(p), from_bound_state(-1.0))
            for p in rng.uniform(0.0, 2.0 * n ** (1.0 / 3.0), (n, 3))]


@pytest.mark.parametrize("n, count", [(64, 55), (128, 103), (256, 200)])
def test_many_centers_give_the_birman_schwinger_count(n, count):
    # the states in a window are the eigenvalues of M that cross zero there
    cs = _uniform_3d(n)
    lo, hi = (np.linalg.eigvalsh(m_matrix(3, e, cs).entries.real) for e in (-16.0, -1e-6))
    assert int(np.sum(hi > 0.0) - np.sum(lo > 0.0)) == count
    states = bound_states(3, cs, method="scan")
    assert len(states) == count
    assert all(-16.0 <= s.energy <= -1e-6 for s in states)


def test_default_window_reaches_states_below_its_bottom():
    # two 3D centers 0.01 apart bind far below the default bottom -16
    cs = [center((0.0, 0.0, 0.0), from_bound_state(-1.0)),
          center((0.01, 0.0, 0.0), from_bound_state(-1.0))]
    assert [s.energy for s in bound_states(3, cs)] == pytest.approx([-3289.386074], rel=1e-9)
    # a repulsive bare 1D center keeps one positive eigenvalue as E -> -inf
    line = [center(0.0, bare_1d(-6.0)), center(0.3, bare_1d(5.0)), center(1.0, bare_1d(-2.0))]
    shot = sorted(-k * k for k in shooting1d(line, (1e-3, 8.0), 4000))
    assert [s.energy for s in bound_states(1, line)] == pytest.approx(shot, rel=1e-12)


def test_infinite_inverse_coupling_decouples_its_center():
    # 1/lambda overflows to inf: D = inf at every E, so the center binds
    # nothing and the others bind alone, with a 0 residue coefficient there
    cs = [center(0.0, bare_1d(-1e-320)), center(1.0, from_bound_state(-1.0)),
          center(3.0, bare_1d(-1.0))]
    want = bound_states(1, cs[1:], method="scan")
    got = bound_states(1, cs, method="scan")
    assert [s.energy for s in got] == [s.energy for s in want]
    for g, w in zip(got, want):
        assert list(g.residue_vector) == [0.0] + list(w.residue_vector)
        assert residue_wavefunction(g, 0.4) == residue_wavefunction(w, 0.4)
    assert [s.energy for s in bound_states(1, cs[:2])] == [-1.0]
    assert bound_states(1, cs[:1], method="scan") == []


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    gaps=st.lists(st.floats(0.2, 4.0), min_size=0, max_size=7),
    lams=st.lists(st.floats(-3.0, -0.3), min_size=8, max_size=8),
)
def test_random_1d_layouts_agree_with_shooting(gaps, lams):
    positions = np.concatenate([[0.0], np.cumsum(gaps)])
    cs = [center(float(p), bare_1d(lam)) for p, lam in zip(positions, lams)]
    kappas = [-0.5 * lam for lam in lams[: len(cs)]]
    kap_lo, kap_hi = 0.05 * min(kappas), 4.0 * max(kappas)
    states = bound_states(1, cs, search=(-kap_hi * kap_hi, -kap_lo * kap_lo), method="scan")
    shot = sorted(-k * k for k in shooting1d(cs, (kap_lo, kap_hi), 4000))
    assert [s.energy for s in states] == pytest.approx(shot, rel=1e-9, abs=1e-12)


def test_noisy_eigenvalues_end_the_scan_in_non_convergence(monkeypatch):
    # M' > 0 makes the positive count fall along the grid; eigenvalues lost
    # to rounding make it rise somewhere, and the scan must not root them
    eigvalsh = np.linalg.eigvalsh
    rng = np.random.default_rng(0)
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: eigvalsh(m) + rng.normal(0.0, 10.0, m.shape[:-1]))
    with pytest.raises(NonConvergenceError) as err:
        bound_states(1, PAIR, search=(-4.0, -0.01), method="scan")
    assert -4.0 <= err.value.details["energy"] <= -0.01


def test_bound_state_validation():
    c = [center(0.0, bare_1d(-2.0))]
    with pytest.raises(IllegalSpecError):
        bound_states(1, c, method="newton")
    with pytest.raises(DomainError):
        bound_states(1, c, tol=0.0)
    with pytest.raises(DomainError):
        bound_states(1, c, search=(-1.0, 1.0))
    with pytest.raises(DomainError):
        bound_states(1, c, search=(-0.5, -1.0))
    with pytest.raises(DomainError):
        bound_states(1, PAIR, grid_points=1)


def test_scan_entry_beyond_double_precision_is_a_domain_error(monkeypatch):
    # no input was found whose M(E) overflows at a scan energy (an infinite
    # 1/lambda decouples its center first), so a patched kernel overflows
    def overflowing(dim, kappa, r):
        return np.full(np.broadcast_shapes(np.shape(kappa), np.shape(r)), -np.inf)

    monkeypatch.setattr(pointgreen, "g0_of_kappa", overflowing)
    with pytest.raises(DomainError, match="beyond double precision"):
        bound_states(1, PAIR, search=(-4.0, -0.01))


def test_non_positive_m_prime_at_a_root_is_a_non_convergence(monkeypatch):
    m_of_kappa = pointgreen._m_of_kappa

    def conjugated(*args):
        # conj M(kappa (1 + i h)) = M(kappa (1 - i h)): the step reads -M'
        return m_of_kappa(*args).conj()

    monkeypatch.setattr(pointgreen, "_m_of_kappa", conjugated)
    with pytest.raises(NonConvergenceError, match="non-positive dM/dE"):
        bound_states(1, PAIR)


# ---------------------------------------------------------------- residues


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("e_b", [-1e300, -1e20, -1.0, -1e-20, -1e-300])
def test_single_center_residue_is_its_closed_form_across_the_double_range(dim, e_b):
    # -2 kappa^(3/2) (1D), -2 sqrt(pi) kappa (2D), -sqrt(8 pi kappa) (3D);
    # dM/dE itself underflows (1D, -1e300) or outgrows any fixed step in E
    # (-1e-300), but the step in ln kappa reads 2 kappa^2 dM/dE, a normal
    # double at both ends
    state = bound_states(dim, [center((0.0,) * dim, from_bound_state(e_b))])[0]
    with mp.workdps(40):
        kap = mp.sqrt(-mp.mpf(e_b))
        want = float({1: -2 * kap**1.5, 2: -2 * mp.sqrt(mp.pi) * kap,
                      3: -mp.sqrt(8 * mp.pi * kap)}[dim])
    assert abs(state.residue_vector[0] - want) <= 4.0 * np.spacing(abs(want))


def test_residue_wavefunction_1d_closed_form():
    state = bound_states(1, [center(0.0, bare_1d(-2.0))])[0]
    for x in (0.0, 0.5, -0.5, 1.0, -2.3, 4.0):
        assert residue_wavefunction(state, x) == pytest.approx(
            math.exp(-abs(x)), rel=1e-12
        )


def test_residue_wavefunction_3d_closed_form():
    state = bound_states(3, [center((0, 0, 0), from_bound_state(-1.0))])[0]
    got = residue_wavefunction(state, (1.0, 0.0, 0.0))
    want = math.sqrt(1.0 / (2.0 * math.pi)) * math.exp(-1.0)
    assert want == pytest.approx(0.146762663, abs=5e-10)
    assert got == pytest.approx(want, rel=1e-12)


def test_residue_wavefunction_2d_closed_form():
    state = bound_states(2, [center((0.0, 0.0), from_bound_state(-1.0))])[0]
    for r in (0.3, 0.7, 1.9):
        want = scipy_k0(r) / math.sqrt(math.pi)
        assert residue_wavefunction(state, (r, 0.0)) == pytest.approx(want, rel=1e-12)


def test_residue_ground_state_positive_at_centroid():
    states = bound_states(1, PAIR)
    assert residue_wavefunction(states[0], 0.0) > 0.0
    # first excited state is odd: near-zero at the centroid, fixed positive
    # further out along the axis
    assert abs(residue_wavefunction(states[1], 0.0)) < 1e-12
    assert residue_wavefunction(states[1], 1.5) > 0.0


def test_residue_sign_follows_the_largest_probe():
    # the sign is set where |psi| is largest among the centroid and the
    # points 0.37, 0.79 and 1.31 span along the axis, not at the centroid
    pos, lams = (-2.372, -1.901, -0.775, 2.003), (-1.618, -2.58, -4.909, -4.82)
    centers = [center((x,), bare_1d(lam)) for x, lam in zip(pos, lams)]
    state = next(s for s in bound_states(1, centers) if abs(s.energy + 5.80736) < 1e-5)
    mid = float(np.mean(pos))
    span = max(abs(x - mid) for x in pos)
    assert residue_wavefunction(state, mid) < -0.07
    assert residue_wavefunction(state, mid + 0.79 * span) > 0.38


@pytest.mark.parametrize("dim,sep", [(1, 800.0), (1, 2000.0), (3, 800.0), (3, 3000.0)])
def test_residue_sign_when_every_probe_underflows(dim, sep):
    # the probes sit near the centroid, far from the center at 0: psi of
    # its state underflows to 0 at all of them at the larger separations,
    # and is then made positive next to its dominant center instead
    spec = bare_1d if dim == 1 else lambda e_b: from_bound_state(0.5 * e_b)
    near, want = (0.0, 1.0) if dim == 1 else (0.3, 0.985146)
    pad = (0.0,) * (dim - 1)
    centers = [center((0.0,) + pad, spec(-2.0)), center((sep,) + pad, spec(-1.0))]
    deep, shallow = bound_states(dim, centers)
    assert deep.energy == pytest.approx(-1.0, rel=1e-12)
    assert residue_wavefunction(deep, (near,) + pad) == pytest.approx(want, rel=1e-6)
    assert residue_wavefunction(shallow, (sep + near,) + pad) > 0.0


@pytest.mark.parametrize(
    "dim,centers,x,y",
    [
        (1, PAIR, 0.77, -0.33),
        (3, (center((0, 0, 0), from_bound_state(-1.0)),), (0.9, 0, 0), (0, 1.4, 0)),
    ],
)
def test_residue_factorizes_the_pole(dim, centers, x, y):
    """(E - E_B) G(E; x, y) -> psi(x) psi(y) as E approaches the pole."""
    state = bound_states(dim, centers)[0]
    e_b = state.energy
    xp = _pt(*x) if isinstance(x, tuple) else _pt(x)
    yp = _pt(*y) if isinstance(y, tuple) else _pt(y)
    deltas = np.array([1e-3, 1e-4, 1e-5])
    probes = [
        (abs(e_b) * d) * green(dim, e_b + abs(e_b) * d, xp, yp, centers).value.real
        for d in deltas
    ]
    fit = np.polyfit(deltas, probes, 2)
    extrapolated = fit[-1]
    want = residue_wavefunction(state, x) * residue_wavefunction(state, y)
    assert extrapolated == pytest.approx(want, rel=1e-6)


def test_residue_normalization_1d():
    state = bound_states(1, PAIR)[0]
    total, err = quad(
        lambda x: residue_wavefunction(state, x) ** 2,
        -60.0,
        60.0,
        points=[-1.0, 0.0, 1.0],
        limit=200,
    )
    assert err < 1e-8
    assert total == pytest.approx(1.0, abs=1e-6)


def test_residue_normalization_2d():
    state = bound_states(2, [center((0.0, 0.0), from_bound_state(-0.7))])[0]
    total, err = quad(
        lambda r: 2.0 * math.pi * r * residue_wavefunction(state, (r, 0.0)) ** 2,
        0.0,
        80.0,
        limit=200,
    )
    assert err < 1e-8
    assert total == pytest.approx(1.0, abs=1e-6)


def test_residue_normalization_3d():
    state = bound_states(3, [center((0, 0, 0), renormalized_3d(4.0 * math.pi))])[0]
    total, err = quad(
        lambda r: 4.0 * math.pi * r * r * residue_wavefunction(state, (r, 0.0, 0.0)) ** 2,
        0.0,
        60.0,
        limit=200,
    )
    assert err < 1e-8
    assert total == pytest.approx(1.0, abs=1e-6)


def test_residue_satisfies_jump_condition():
    """psi'(a+) - psi'(a-) = lambda psi(a) at each center (bare 1D)."""
    states = bound_states(1, PAIR)
    h = 1e-3
    w = np.array([-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25])
    for state in states:
        for a, lam in ((-1.0, -2.0), (1.0, -2.0)):
            right = sum(
                wk * residue_wavefunction(state, a + k * h) for k, wk in enumerate(w)
            ) / h
            left = -sum(
                wk * residue_wavefunction(state, a - k * h) for k, wk in enumerate(w)
            ) / h
            jump = right - left
            assert jump == pytest.approx(lam * residue_wavefunction(state, a), abs=1e-7)


# -------------------------------------------------------------- validation


def test_rejects_coincident_centers():
    with pytest.raises(IllegalSpecError):
        m_matrix(1, -1.0, [center(0.0, bare_1d(-2.0)), center(5e-11, bare_1d(-2.0))])
    # the first coincident pair in row-major order is named
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (1.0, 5e-11), (0.0, 2.0)]
    with pytest.raises(IllegalSpecError) as info:
        bound_states(2, [center(p, from_bound_state(-1.0)) for p in pts])
    assert info.value.details == {"i": 1, "j": 3}


def test_distances_beyond_the_squares_scale_like_hypot():
    pos = np.array([[0.0, 0.0], [3.0, 4.0], [3e200, 4e200], [-1e300, 1e-300]])
    _, r = pointgreen._pair_distances(pos)
    want = [math.hypot(*(a - b)) for a, b in itertools.combinations(pos, 2)]
    assert r == pytest.approx(want, rel=1e-15)
    x = SpatialPoint((-3e200, 0.0))
    want = [math.hypot(*(p - x.coords)) for p in pos]
    assert pointgreen._distances_to(x, pos) == pytest.approx(want, rel=1e-15)
    # entries whose squares stay finite keep the plain sum of squares
    pos = np.array([[0.1, 0.7], [0.3, -1.9], [1e300, 0.0]])
    _, r = pointgreen._pair_distances(pos)
    assert r[0] == np.sqrt((0.1 - 0.3) ** 2 + (0.7 + 1.9) ** 2)


def test_rejects_distances_beyond_double_range():
    far = [center(-1e308, bare_1d(-2.0)), center(1e308, bare_1d(-2.0))]
    with pytest.raises(DomainError):
        m_matrix(1, -1.0, far)
    with pytest.raises(DomainError):
        green(1, -2.0, _pt(1e308), _pt(0.0), far[:1])


def test_rejects_wrong_dimension_coupling():
    with pytest.raises(IllegalSpecError):
        center((0.0, 0.0, 0.0), bare_1d(-2.0))
    with pytest.raises(IllegalSpecError):
        m_matrix(2, -1.0, [center((0.0,), bare_1d(-2.0))])


def test_rejects_empty_center_list():
    with pytest.raises(IllegalSpecError):
        m_matrix(1, -1.0, [])
    with pytest.raises(IllegalSpecError):
        bound_states(1, [])
