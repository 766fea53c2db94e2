"""Multi-center resolvent, bound-state search, residue factorization."""

import functools
import hashlib
import itertools
import math
import sys
import threading
import warnings
from bisect import bisect_right

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import k0 as scipy_k0

from deltagreen import (
    CouplingSpec,
    DeltaCenter,
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
    UnsupportedDimError,
    ZeroCouplingError,
)
from deltagreen.greenfn import ComplexEnergy, SpatialPoint
from deltagreen.oracles import Lattice1D, lattice1d_resolvent, shooting1d
from deltagreen.pointgreen import POLE_TOL

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
    assert calls == []  # G0(x, y) is the first entry of the point's kernel row


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


def _scattered(off, diag):
    """M placed by fancy-index scatters: -off at both triangles, diag on the diagonal."""
    n = diag.shape[-1]
    pairs = np.triu_indices(n, 1)
    m = np.empty(diag.shape + (n,), dtype=np.result_type(off, diag))
    neg = -off
    m[..., pairs[0], pairs[1]] = neg
    m[..., pairs[1], pairs[0]] = neg
    idx = np.arange(n)
    m[..., idx, idx] = diag
    return m


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("batch", [1, 5])
def test_m_of_kappa_gathers_the_scattered_matrices(dim, n, batch):
    # one gather gives the scatters' bits in a C-contiguous batch, the layout
    # whose eigh the residues and the scan are bit-checked against
    rng = np.random.default_rng(10 * dim + n)
    other = {1: bare_1d(-1.3), 2: renormalized_2d(-6.0, 1.0), 3: renormalized_3d(9.0)}[dim]
    cs = [center(tuple(p), other if i % 2 else from_bound_state(-0.5 - 0.2 * i))
          for i, p in enumerate(rng.uniform(0.0, 3.0, (n, dim)))]
    consts = renorm.coupling_constants(dim, [c.coupling for c in cs])
    slots, r = pointgreen._pair_distances(pointgreen._lay_out(dim, cs)[1])
    kap = np.geomspace(0.2, 5.0, batch)
    for kappas in (kap, kap * np.exp(0.4j), kap * (1.0 + 1e-20j)):
        got = pointgreen._m_of_kappa(dim, consts, slots, r, kappas)
        want = _scattered(greenfn.g0_of_kappa(dim, kappas[:, None], r),
                          renorm.renormalized_denominators(dim, kappas, consts))
        assert got.flags.c_contiguous
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scan_eigenvalues_are_those_of_m_matrix(dim):
    # the scan counts states from the same M(-kappa^2) that m_matrix returns
    rng = np.random.default_rng(40 + dim)
    other = {1: bare_1d(-1.3), 2: renormalized_2d(-6.0, 1.0), 3: renormalized_3d(9.0)}[dim]
    cs = [center(tuple(p), other if i % 2 else from_bound_state(-0.5 - 0.2 * i))
          for i, p in enumerate(rng.uniform(0.0, 3.0, (6, dim)))]
    eigenvalues = _eigenvalues_of(dim, cs)
    kappas = np.geomspace(0.03, 30.0, 9)
    grid = eigenvalues(kappas)
    for kap, row in zip(kappas, grid):
        want = np.linalg.eigvalsh(m_matrix(dim, -kap * kap, cs).entries).tobytes()
        assert eigenvalues(np.array([kap]))[0].tobytes() == want
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
    for dim in (2, 3):
        pad = (0.0,) * (dim - 2)
        cs = [center((0.0, 0.0) + pad, from_bound_state(-1.0)), center((1.0, 0.5) + pad, from_bound_state(-2.0))]
        y, x = _pt(0.3, -0.2, *pad), _pt(0.5, 0.5, *pad)
        want = green(dim, -0.7, x, y, cs).value
        solves = dict(calls)
        # each error of a repeat call is raised by the point's own checks,
        # and the kept solve serves the next call
        for bad, error in [(_pt(0.5), IllegalSpecError), (_pt(0.5, 0.5, 0.5, 0.5), IllegalSpecError),
                           (y, CoincidentPointsError), (cs[1].position, CoincidentPointsError)]:
            with pytest.raises(error):
                green(dim, -0.7, bad, y, cs)
            assert green(dim, -0.7, x, y, cs).value == want
        assert calls == solves


@pytest.mark.parametrize("dim", [2, 3])
def test_green_point_is_one_kernel_row_with_the_g0_errors(monkeypatch, dim):
    calls = {"row": 0, "k0": 0, "m_matrix": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    row = counting("row", greenfn._kernel_row)
    monkeypatch.setattr(pointgreen, "_kernel_row", row)
    monkeypatch.setattr(greenfn, "_kernel_row", row)  # the one g0_kernel calls
    monkeypatch.setattr(bessel, "k0", counting("k0", bessel.k0))
    monkeypatch.setattr(pointgreen, "m_matrix", counting("m_matrix", pointgreen.m_matrix))
    pad = (0.0,) * (dim - 2)
    cs = [center((0.0, 0.0) + pad, from_bound_state(-1.0)),
          center((1.0, 0.5) + pad, from_bound_state(-2.0))]
    y = _pt(0.3, -0.2, *pad)
    _forget_last_solve()
    green(dim, -0.7, _pt(0.5, 0.5, *pad), y, cs)
    # a first call: one assembly of M (one k0 call in 2D), the source's row and the point's
    assert calls == {"row": 2, "k0": 3 if dim == 2 else 0, "m_matrix": 1}
    calls.update(row=0, k0=0, m_matrix=0)
    # after the solve, G0(x, y) and every G0(x, a_i) are one kernel row
    green(dim, -0.7, _pt(0.9, -0.4, *pad), y, cs)
    assert calls == {"row": 1, "k0": 1 if dim == 2 else 0, "m_matrix": 0}
    for x in (_pt(0.5), _pt(0.5, 0.5, 0.5, 0.5)):
        with pytest.raises(IllegalSpecError) as err:
            green(dim, -0.7, x, y, cs)
        assert err.value.details == {"dim": dim, "xdim": x.dim}
    for x in (y, cs[1].position):  # on the source, on a center: repeat calls
        with pytest.raises(CoincidentPointsError) as err:
            green(dim, -0.7, x, y, cs)
        assert err.value.details == {"dim": dim, "r": 0.0}
    assert calls["m_matrix"] == 0
    # at E = 0 the 2D centers' denominators raise first (3D's are finite, so
    # the point's row raises); without centers, g0's coincidence rule comes
    # before its E = 0 rule
    threshold = ComplexEnergy(0.0, retarded=True)
    with pytest.raises(DomainError if dim == 2 else CoincidentPointsError) as err:
        green(dim, threshold, y, y, cs)
    assert err.value.details == ({"dim": 2} if dim == 2 else {"dim": 3, "r": 0.0})
    with pytest.raises(CoincidentPointsError) as err:
        green(dim, threshold, y, y, [])
    assert err.value.details == {"dim": dim, "r": 0.0}
    with pytest.raises(CoincidentPointsError) as err:
        greenfn.g0_kernel(dim, threshold, [1.0, 0.0])
    assert err.value.details == {"dim": dim, "r": 0.0}
    if dim == 2:
        with pytest.raises(DomainError) as err:
            greenfn.g0_kernel(dim, threshold, [1.0])
        assert err.value.details == {"dim": 2}


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
    # the pair's two roots differ by ulps of 8.7e5: the grouping is relative
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


def _polygon(n, a, e_b, rounded=True):
    # a regular n-gon of nearest-neighbour distance a, coordinates rounded to
    # 12 digits as in the benchmark's symmetric 2D layouts, or not rounded
    radius = a / (2.0 * math.sin(math.pi / n))
    coords = [[radius * f(2 * math.pi * k / n) for f in (math.cos, math.sin)] for k in range(n)]
    return [center(tuple(round(x, 12) if rounded else x for x in xy), from_bound_state(e_b))
            for xy in coords]


# the octagon of equal 2D eb centers (spectrum op d2_n8_sym, seed 31 round
# 1), a window around its states, and the energy of its pair
OCTAGON = (8, 0.8688571362282915, -1.171857857912272)
OCTAGON_WINDOW, OCTAGON_PAIR = (-18.749725726596353, -0.0029296446447806806), -0.2341688442


def _states_near(cs, window, want, tol=1e-12):
    return [s for s in bound_states(2, cs, search=window, tol=tol, method="scan")
            if abs(s.energy - want) < 1e-9]


def _assert_one_multiplet(cs, pair):
    assert len(pair) == 2 and pair[0].energy == pair[1].energy
    e = pair[0].energy
    # the columns of C are M'-orthonormal and span the null space, so C C^T,
    # and the residue sum_a psi_a(x) psi_a(y), does not depend on the basis
    mp_ = m_matrix(2, complex(e, 1e-20), cs).entries.imag / 1e-20
    c = np.stack([s.residue_vector for s in pair], axis=1)
    assert c.T @ mp_ @ c == pytest.approx(np.eye(2), abs=1e-10)
    x, y = (0.4, -0.3), (-0.7, 0.9)
    deltas = np.array([1e-3, 1e-4, 1e-5])
    probes = [abs(e) * d * green(2, e + abs(e) * d, _pt(*x), _pt(*y), cs).value.real
              for d in deltas]
    want = sum(residue_wavefunction(s, x) * residue_wavefunction(s, y) for s in pair)
    assert np.polyfit(deltas, probes, 2)[-1] == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("n, a, e_b, window, want", [
    (12, 1.394340535822198, -0.8287121074046553,
     (-13.259393718474483, -0.0020717802685116383), -1.1334457229),
], ids=["12-gon"])
def test_degenerate_pair_roots_twice_the_tolerance_apart_are_one_multiplet(n, a, e_b, window, want):
    # each root of the pair lies within max(tol, 1e-12) |E| of the shared
    # energy, and the two lie 1.2e-12 |E| apart: grouping them within that
    # bound, not twice it, split the pair into two states
    cs = _polygon(n, a, e_b)
    _assert_one_multiplet(cs, _states_near(cs, window, want))


def test_the_rounded_octagon_splits_its_pair():
    # rounding the coordinates to 12 digits splits the pair by 8.0e-12 |E|:
    # its roots keep their bits at tol 1e-16 and 1e-30, so at the default tol
    # they are two states, each close to its root
    cs = _polygon(*OCTAGON)
    pair, fine = (_states_near(cs, OCTAGON_WINDOW, OCTAGON_PAIR, tol) for tol in (1e-12, 1e-16))
    assert len(pair) == 2 and pair[0].energy < pair[1].energy
    assert [s.energy for s in pair] == pytest.approx([s.energy for s in fine], rel=1e-13)
    # a tol above the split makes it one multiplet
    _assert_one_multiplet(cs, _states_near(cs, OCTAGON_WINDOW, OCTAGON_PAIR, 1e-11))


@pytest.mark.parametrize("tol", [1e-12, 5e-324])
def test_the_unrounded_octagon_keeps_its_pair(tol):
    # exact positions split the pair only by rounding, far below 1e-12 |E|
    cs = _polygon(*OCTAGON, rounded=False)
    _assert_one_multiplet(cs, _states_near(cs, OCTAGON_WINDOW, OCTAGON_PAIR, tol))


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


def test_weak_2d_coupling_binds_with_its_neighbour():
    # lambda_R = -0.01 at mu = 1: E_B = -exp(-400 pi) underflows to -0.0, yet
    # ln kappa_B = -200 pi keeps D finite, and the center lowers the pair's
    # state; the reference is a root of det M on the 2x2 M with scipy's K0
    cs = [center((0.0, 0.0), renormalized_2d(-0.01, 1.0)), center((2.0, 0.0), from_bound_state(-1.0))]
    ln_kb = np.array([-200.0 * math.pi, 0.0])

    def m(kap):
        off = scipy_k0(2.0 * kap) / (2.0 * math.pi)
        return np.diag((ln_kb - math.log(kap)) / (2.0 * math.pi)) + off * (1.0 - np.eye(2))

    kap = brentq(lambda k: np.linalg.det(m(k)), 0.9, 1.1, xtol=1e-16, rtol=1e-15)
    for method in ("auto", "scan"):
        [state] = bound_states(2, cs, method=method)
        assert state.energy == pytest.approx(-kap * kap, rel=1e-13)
    # G(x, y) = G0(x, y) + g(x)^T M^-1 g(y), g_i(x) = G0(x, a_i) = -K0/(2 pi)
    x, y, kap = np.array([1.0, 0.0]), np.array([0.0, 1.0]), math.sqrt(0.7)
    g0 = lambda p, q: -scipy_k0(kap * np.linalg.norm(p - q)) / (2.0 * math.pi)
    gx, gy = (np.array([g0(p, np.array(c.position.coords)) for c in cs]) for p in (x, y))
    want = g0(x, y) + gx @ np.linalg.solve(m(kap), gy)
    got = green(2, -0.7, SpatialPoint(tuple(x)), SpatialPoint(tuple(y)), cs).value
    assert got == pytest.approx(want, rel=1e-12)


def test_a_given_window_reads_no_e_b_of_several_centers():
    # lambda_R = 1e-3 at mu = 1: E_B = -exp(4000 pi) overflows, ln kappa_B =
    # 2000 pi does not, and a given window over several centers is searched
    # through that constant; the reference is a root of det M with scipy's K0
    cs = [center((0.0, 0.0), renormalized_2d(1e-3, 1.0)), center((1.0, 0.0), from_bound_state(-1.0))]
    ln_kb = np.array([2000.0 * math.pi, 0.0])

    def det_m(kap):
        off = scipy_k0(kap) / (2.0 * math.pi)
        return np.prod((ln_kb - math.log(kap)) / (2.0 * math.pi)) - off * off

    kap = brentq(det_m, 0.9, 1.1, xtol=1e-16, rtol=1e-15)
    # 1D: lambda = -1e300 forces psi(0) = 0, so the pair binds PAIR's odd state
    line = [center(0.0, bare_1d(-1e300)), center(1.0, bare_1d(-2.0))]
    for method in ("auto", "scan"):
        [state] = bound_states(2, cs, search=(-10.0, -0.1), method=method)
        assert state.energy == pytest.approx(-kap * kap, rel=1e-13)
        [state] = bound_states(1, line, search=(-10.0, -0.1), method=method)
        assert state.energy == pytest.approx(PAIR_ENERGIES[1], rel=1e-13)
        # the default window reads every E_B, and a lone center its own
        for dim, layout in ((2, cs), (1, line), (1, line[:1])):
            with pytest.raises(DomainError, match="overflows"):
                bound_states(dim, layout, method=method)
        with pytest.raises(DomainError, match="overflows") as err:
            bound_states(1, line[:1], search=(-10.0, -0.1), method=method)
        assert err.value.details == {"e_b": -math.inf}


@pytest.mark.parametrize("dim, coupling, e_b", [
    (1, bare_1d(-1e-300), -0.0),  # E_B = -lambda^2/4 underflows
    (2, renormalized_2d(-0.01, 1.0), -0.0),  # E_B = -exp(-400 pi) underflows
    (3, renormalized_3d(1e300), -0.0),  # E_B = -(4 pi/lambda_R)^2 underflows
    (2, renormalized_2d(5.561078970618804e+73, 2.624634836309935e+165), None),  # ~ -7e330 overflows
])
@pytest.mark.parametrize("method", ["auto", "scan"])
def test_a_lone_state_beyond_the_doubles_is_a_domain_error(dim, coupling, e_b, method):
    with pytest.raises(DomainError) as err:
        bound_states(dim, [center((0.0,) * dim if dim > 1 else 0.0, coupling)], method=method)
    if e_b is None:
        assert "overflows" in str(err.value)
    else:  # the window check names the underflowed E_B, -0.0 with its sign
        assert repr(err.value.details) == repr({"e_b": e_b})


def test_a_lone_near_hard_wall_repulsion_binds_nothing():
    # 1/lambda = 1e-300: D is finite, and the scan finds no state
    assert bound_states(1, [center(0.0, bare_1d(1e-300))], method="scan") == []


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


_DECADES = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(
    gaps=st.lists(st.floats(0.05, 5.0), min_size=0, max_size=7),
    couplings=st.lists(st.builds(lambda mag, neg: bare_1d(-mag if neg else mag), _DECADES, st.booleans())
                       | st.builds(lambda mag: from_bound_state(-mag), _DECADES), min_size=8, max_size=8),
    k=st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
)
def test_retarded_1d_green_conserves_flux(gaps, couplings, k):
    # outside every center G(., y) at E = k^2 + i0 is plane waves: with y left
    # of them all, t is read right of them and r from G - G0 left of them, and
    # |G0| = 1/(2k) normalizes both, so unitarity is 4 k^2 (|G_R|^2 + |G_L - G0_L|^2) = 1
    positions = np.concatenate([[0.0], np.cumsum(gaps)])
    cs = [center(float(p), spec) for p, spec in zip(positions, couplings)]
    e, y, x_l, x_r = ComplexEnergy(k * k, retarded=True), -1.0, -2.5, float(positions[-1]) + 1.5
    try:
        t = green(1, e, (x_r,), (y,), cs).value
        r = green(1, e, (x_l,), (y,), cs).value - g0(1, e, (x_l,), (y,)).value
    except AtPoleError:
        return
    assert abs(4.0 * k * k * (abs(t) ** 2 + abs(r) ** 2) - 1.0) <= 1e-10


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


def _full_grid_brackets(eigenvalues, window, grid_points):
    # the reference scan: eigenvalues at every grid point, the guard on the
    # whole count sequence, and each bracket where its branch turns non-positive
    e_min, e_max = window
    grid = np.geomspace(math.sqrt(-e_max), math.sqrt(-e_min), grid_points)
    mu = eigenvalues(grid)
    count = np.sum(mu > 0.0, axis=1)
    rises = np.flatnonzero(np.diff(count) > 0)
    if rises.size:
        raise NonConvergenceError("count rises", energy=float(-grid[rises[0] + 1] ** 2))
    n = mu.shape[1]
    ks = np.arange(n - count[0], n - count[-1])
    hi = np.argmax(mu[:, ks] <= 0.0, axis=0)
    return ks, grid[hi - 1], grid[hi], mu[hi - 1, ks], mu[hi, ks]


def _eigenvalues_of(dim, cs):
    """The batched eigenvalue function the search stages of bound_states evaluate."""
    return functools.partial(pointgreen._eigenvalues, pointgreen._lay_out(dim, cs)[3], len(cs))


def _scan_outcomes(dim, cs, window, grid_points=400):
    """The searched and the full-grid scan's multiplets (hex energies), or the
    energy each one's guard names."""
    eigenvalues = _eigenvalues_of(dim, cs)

    def outcome():
        try:
            multiplets = pointgreen._scan_energies(eigenvalues, window, 1e-12, grid_points)
            return [(e_b.hex(), ks.tolist()) for e_b, ks in multiplets]
        except NonConvergenceError as exc:
            return exc.details["energy"].hex()

    searched = outcome()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointgreen, "_brackets", _full_grid_brackets)
        return searched, outcome()


@st.composite
def _scan_cases(draw):
    # 1D windows reach tops of -1e-60, where M ~ 11^T / (2 kappa) leaves its
    # O(1) eigenvalues to rounding and the guard often fires
    dim = draw(st.sampled_from([1, 1, 1, 2, 3]))
    n = draw(st.integers(2, 6))
    if dim == 1:
        gaps = draw(st.lists(st.floats(0.2, 4.0), min_size=n - 1, max_size=n - 1))
        sites = np.concatenate([[0.0], np.cumsum(gaps)])[:, None]
    else:  # lattice sites 1.5 apart, each moved by at most 0.3 per axis
        lattice = np.array(list(itertools.product(range(3), repeat=dim))[:n], dtype=float)
        shifts = draw(st.lists(st.floats(-0.3, 0.3), min_size=n * dim, max_size=n * dim))
        sites = 1.5 * lattice + np.reshape(shifts, (n, dim))
    cs = []
    for site in sites:
        if dim == 1 and draw(st.booleans()):
            coupling = bare_1d(draw(st.floats(-3.0, -0.3)))
        else:
            depth = draw(st.floats(-0.3, 35.0 if dim == 1 else 3.0))
            coupling = from_bound_state(-(10.0**-depth))
        cs.append(center(tuple(site), coupling))
    top = -(10.0 ** -draw(st.floats(2.0, 60.0)))
    window = (-(10.0 ** draw(st.floats(0.0, 1.5))), top)
    # the default grid first, so most examples use it, then grids of one or two levels
    return dim, cs, window, draw(st.sampled_from([400, 2, 3, 4, 17]))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=_scan_cases())
def test_grid_search_gives_the_full_grid_outcome(case):
    # the same multiplets bit for bit, or the same first rise of the count
    searched, full = _scan_outcomes(*case)
    assert searched == full


@pytest.mark.parametrize("dim, cs, window, grid_points, most", [
    (3, _uniform_3d(16), (-16.0, -1e-6), 400, 119),
    (3, _uniform_3d(16), (-16.0, -1e-6), 2, 2),
    (3, _uniform_3d(16), (-16.0, -1e-6), 3, 3),
    (2, [center((0.0, 0.0), from_bound_state(-1.0)), center((1.0, 0.0), from_bound_state(-0.5)),
         center((0.0, 1.5), from_bound_state(-2.0))], (-32.0, -5e-7), 1_000_000, 1100),
])
def test_grid_search_evaluates_few_grid_points(dim, cs, window, grid_points, most):
    # a few of the grid's points, none twice, bracket every branch as all of
    # them do, bit for bit
    eigenvalues, kappas = _eigenvalues_of(dim, cs), []
    searched = pointgreen._brackets(lambda kap: kappas.extend(kap.tolist()) or eigenvalues(kap),
                                    window, grid_points)
    assert searched[0].size and len(kappas) <= most
    assert len(set(kappas)) == len(kappas)
    for got, want in zip(searched, _full_grid_brackets(eigenvalues, window, grid_points)):
        assert got.tobytes() == want.tobytes()


#: The kappas of a 400-point grid over the window (-1e4, -1), and the ratio of its adjacent points.
_LOG_GRID = np.geomspace(1.0, 100.0, 400)
_LOG_CELL = _LOG_GRID[202] / _LOG_GRID[201]


def _log_branches(zeros, wiggle):
    # mu_k = ln(a_k / kappa) vanishes exactly at kappa = a_k; a wiggle, w
    # sin(5 ln kappa), stands for rounding noise that makes the count rise
    a = np.sort(np.asarray(zeros, dtype=float))
    return lambda kap: np.log(a / kap[:, None]) + wiggle * np.sin(5.0 * np.log(kap))[:, None]


@pytest.mark.parametrize("zeros, wiggle", [
    ([_LOG_GRID[137], _LOG_GRID[140], _LOG_GRID[250]], 0.0),
    (_LOG_GRID[201] * _LOG_CELL ** np.array([0.2, 0.5, 0.8]), 0.0),
    ([_LOG_GRID[0], _LOG_GRID[0] * _LOG_CELL**0.5, _LOG_GRID[-1] / _LOG_CELL**0.5, _LOG_GRID[-1]], 0.0),
    ([3.0, 30.0], 1.0),
], ids=["on_grid_points", "three_in_one_cell", "at_either_end", "noisy"])
def test_grid_search_on_known_branches_gives_the_full_grid_outcome(zeros, wiggle):
    # crossings on grid points (one in the coarse pass), three in one cell,
    # at and next to either end of the window (a zero at its top is no state
    # in it), and a count that rises: the full grid's brackets bit for bit,
    # or the energy its guard names, and each root to tol
    eigenvalues, window = _log_branches(zeros, wiggle), (-1e4, -1.0)

    def outcome(search):
        try:
            return [a.tobytes() for a in search(eigenvalues, window, 400)]
        except NonConvergenceError as exc:
            return exc.details["energy"]

    searched = outcome(pointgreen._brackets)
    assert searched == outcome(_full_grid_brackets)
    if wiggle:
        assert isinstance(searched, float)
        return
    inside = [-a * a for a in sorted(zeros, reverse=True) if a > _LOG_GRID[0]]
    energies = [e_b for e_b, _ in pointgreen._scan_energies(eigenvalues, window, 1e-12, 400)]
    assert energies == pytest.approx(inside, rel=1e-12, abs=0.0)


def _jittered(dim, n, spacing, seed):
    # n sites of a cubic lattice, each moved by at most a fifth of the spacing
    rng = np.random.default_rng(seed)
    side = math.ceil(round(n ** (1.0 / dim), 9))
    sites = np.array(list(itertools.product(range(side), repeat=dim))[:n], dtype=float)
    return [tuple(p) for p in spacing * (sites + rng.uniform(-0.2, 0.2, (n, dim)))]


def _golden_layouts():
    """(dim, centers, window) of fixed layouts: chains, squares, polygons and
    jittered lattices in D = 1..3 with N = 2..16, every coupling variant of
    each dimension, and both the default window and given ones."""
    eb, ren2, ren3 = from_bound_state, renormalized_2d, renormalized_3d
    place = lambda points, couplings: [center(p, c) for p, c in zip(points, couplings)]
    ring = [c.position.coords for c in _polygon(6, 1.3, -1.0)]
    pentagon = [c.position.coords + (0.0,) for c in _polygon(5, 1.1, -1.0)]
    square = [(0.0, 0.0), (0.0, 1.2), (1.2, 0.0), (1.2, 1.2)]
    patch = [(1.1 * i, 1.1 * j) for i in range(4) for j in range(4)]
    mixed2 = [eb(-1.0), ren2(-6.0, 1.0), eb(-0.4), ren2(-9.0, 0.7)] * 3
    mixed3 = [eb(-1.0), ren3(12.0), eb(-2.0), ren3(20.0)] * 3
    return [
        (1, place([-1.0, 1.0], [bare_1d(-2.0)] * 2), None),
        (1, place([0.0, 1.3, 2.6, 3.9, 5.2], [bare_1d(-1.5), eb(-1.0)] * 3), None),
        (1, place([0.0, 0.4, 1.5], [bare_1d(-6.0), bare_1d(5.0), bare_1d(-2.0)]), None),
        (1, place([p[0] for p in _jittered(1, 8, 1.0, 1)],
                  [bare_1d(-1.0 - 0.1 * k) for k in range(8)]), (-20.0, -1e-4)),
        (1, place([0.9 * k for k in range(16)], [bare_1d(-1.5)] * 16), (-12.0, -1e-6)),
        (2, place(square, [eb(-1.0)] * 4), None),
        (2, place([(0.0, 0.0), (1.5, 0.0)], [ren2(-8.0, 1.0)] * 2), None),
        (2, _polygon(3, 1.0, -0.7), None),
        (2, place(ring, [ren2(-7.0, 1.2)] * 6), (-30.0, -1e-5)),
        (2, place(_jittered(2, 9, 1.4, 2), mixed2), None),
        (2, place(patch, [eb(-1.0)] * 16), (-40.0, -1e-4)),
        (3, place([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [ren3(10.0)] * 2), None),
        (3, place([p + (0.0,) for p in square], [eb(-1.0)] * 4), None),
        (3, place(pentagon, [eb(-1.5)] * 5), None),
        (3, place([(0.8 * k, 0.0, 0.0) for k in range(6)], [ren3(4.0 * math.pi)] * 6),
         (-25.0, -1e-6)),
        (3, place(itertools.product((0.0, 1.3), repeat=3), [ren3(9.0)] * 8), None),
        (3, place(_jittered(3, 12, 1.2, 3), mixed3), None),
        (3, _uniform_3d(16), (-16.0, -1e-6)),
    ]


#: Per kernel set (tests/conftest.py), the sha256 digests of the two tests
#: below, recorded with numpy 2.4.6 on x86-64: numpy's SIMD exp and log and
#: OpenBLAS's kernels round differently in the last bit.
_SCAN_DIGESTS = {
    ("X86_V4", "SkylakeX"): "141b44106d3b785379f41bece2c43fbf1d34f30bb6741fadf09f39bbbf5ea71b",
    ("X86_V3", "Haswell"): "c4da54529038a91a1ef30ed95c0c98330b9ac9fad36d3b4be62256952b805095",
}
_PSI_DIGESTS = {
    ("X86_V4", "SkylakeX"): "812cf5658ed24a411140d174ae806aa8f3fbca0328f6573d792f8d0b3b7c011d",
    ("X86_V3", "Haswell"): "8272a869704fe2a7150086229e3df2d9a4ff3b95b592705f3a7706d94956ffc0",
}


def test_scan_keeps_its_bits(kernel_pin):
    # one sha256 over every energy and residue coefficient of the scan on
    # fixed layouts
    digest, count = hashlib.sha256(), 0
    for dim, cs, window in _golden_layouts():
        for st_ in bound_states(dim, cs, search=window, method="scan"):
            digest.update(" ".join(map(float.hex, [st_.energy, *st_.residue_vector])).encode())
            count += 1
    assert (count, digest.hexdigest()) == (83, kernel_pin(_SCAN_DIGESTS))


#: Fixed probes off every center of the golden layouts, cut to each dimension.
_GOLDEN_PROBES = ((0.37, -0.21, 0.13), (1.71, 0.93, -0.44), (-0.58, 2.27, 0.61), (3.14, 1.59, 2.65))


def test_residue_wavefunctions_keep_their_bits(kernel_pin):
    # one sha256 over psi_B at four fixed probes for every state of the
    # golden layouts
    digest, count = hashlib.sha256(), 0
    for dim, cs, window in _golden_layouts():
        for st_ in bound_states(dim, cs, search=window, method="scan"):
            psi = [residue_wavefunction(st_, p[:dim]) for p in _GOLDEN_PROBES]
            digest.update(" ".join(map(float.hex, psi)).encode())
            count += 1
    assert (count, digest.hexdigest()) == (83, kernel_pin(_PSI_DIGESTS))


#: Per kernel set, the sha256 digest of the test below, recorded as above.
_GREEN_DIGESTS = {
    ("X86_V4", "SkylakeX"): "6ef34b619bdc36ab6e2dea76164675b42067de7996c460e5e75487076d86ce6a",
    ("X86_V3", "Haswell"): "0fcad15c505e21fca2984a8b65e5fe6b9b519be1f45c0a8046cc562d97516081",
}


def _green_pin_calls():
    """(dim, energy, x, y, centers) of fixed calls: jittered lattices of N = 1,
    4, 16 and 64 centers in D = 1..3, cycling through every coupling variant
    of the dimension, at a real, a retarded and a complex energy; per layout
    and energy a first call (a fresh solve) and a repeat at another point
    (the kept solve)."""
    variants = {1: [bare_1d(-1.5), from_bound_state(-0.8), bare_1d(0.9)],
                2: [renormalized_2d(-7.0, 1.2), from_bound_state(-0.8)],
                3: [renormalized_3d(9.0), from_bound_state(-0.8), renormalized_3d(-4.0)]}
    energies = [ComplexEnergy(-0.7), ComplexEnergy(1.3, retarded=True), ComplexEnergy(complex(-0.4, 0.9))]
    for dim in (1, 2, 3):
        for n in (1, 4, 16, 64):
            couplings = variants[dim]
            cs = [center(p, couplings[k % len(couplings)])
                  for k, p in enumerate(_jittered(dim, n, 1.5, 10 * dim + n))]
            side = 1.5 * math.ceil(round(n ** (1.0 / dim), 9))
            y, *xs = map(tuple, np.random.default_rng([dim, n]).uniform(-1.0, side, (3, dim)))
            for e in energies:
                for x in xs:
                    yield dim, e, x, y, cs


def test_green_values_keep_their_bits(kernel_pin):
    # one sha256 over every value of the fixed calls, made in order, so each
    # layout's second call at an energy reuses the first call's solve
    digest, count = hashlib.sha256(), 0
    _forget_last_solve()
    for dim, e, x, y, cs in _green_pin_calls():
        value = _hex(lambda: green(dim, e, x, y, cs))
        assert len(value) == 2, (dim, len(cs), e, value)  # a value, no error
        digest.update(" ".join(value).encode())
        count += 1
    assert (count, digest.hexdigest()) == (72, kernel_pin(_GREEN_DIGESTS))


def _residue_block_alone(m_of_kappa, pos, e_b, branches):
    # one multiplet's residue block in a batch of its own, and its null
    # vectors, each step as a degenerate multiplet takes it; for one state
    # U = [[1.0]] (what LAPACK's eigh gives a 1 x 1 Gram), so V U sums from +0.0
    kap = np.sqrt([-e_b])
    v = np.linalg.eigh(m_of_kappa(kap))[1][0]
    s = m_of_kappa(kap * (1.0 + 1e-20j)).imag[0] / -1e-20
    null = v[:, branches]
    gram = null.T @ s @ null
    g, u = (gram[0], np.ones((1, 1))) if len(branches) == 1 else np.linalg.eigh(gram)
    coeffs = (null @ u) * (math.sqrt(2.0) * kap[0] / np.sqrt(g))
    order = np.lexsort(pos.T[::-1])
    size = np.abs(coeffs[order])
    lead = order[np.argmax(size >= (1.0 - 1e-9) * size.max(axis=0), axis=0)]
    return np.where(coeffs[lead, np.arange(len(branches))] > 0.0, -coeffs, coeffs), null


def test_one_state_residue_blocks_keep_their_bits_across_batches(monkeypatch):
    # a 7 x 7 square of centers in the z = 0 plane: SCAN_BATCH // 49^2 = 6
    # multiplets a batch, so batches hold one-state and degenerate multiplets
    # together, and a one-state null vector has a -0.0 entry
    cs = [center((1.5 * i, 1.5 * j, 0.0), from_bound_state(-1.0)) for i in range(7) for j in range(7)]
    seen, residues = [], pointgreen._residue_vectors
    monkeypatch.setattr(pointgreen, "_residue_vectors", lambda *args: seen.append(args) or residues(*args))
    states = iter(bound_states(3, cs, method="scan"))
    (m_of_kappa, pos, multiplets), = seen
    sizes, step = [len(branches) for _, branches in multiplets], pointgreen.SCAN_BATCH // len(cs) ** 2
    batches = [sizes[i : i + step] for i in range(0, len(sizes), step)]
    assert len(batches) > 2 and sum(1 in b and max(b) > 1 for b in batches) > 2
    negative_zeros = 0
    for (e_b, branches), block in zip(multiplets, residues(m_of_kappa, pos, multiplets), strict=True):
        want, null = _residue_block_alone(m_of_kappa, pos, e_b, branches)
        assert block.tobytes() == want.tobytes()
        # psi reads each vector with the strides of the block's column
        for state, column in zip([next(states) for _ in branches], want.T):
            assert state.residue_vector.tobytes() == column.tobytes()
            assert state.residue_vector.strides == column.strides
        negative_zeros += len(branches) == 1 and bool(np.signbit(null[null == 0.0]).any())
    assert negative_zeros


@pytest.mark.parametrize("n", [2, 400, 10**6])
def test_grid_search_points_are_those_of_geomspace(n):
    # the search evaluates M only at points of np.geomspace over the window's
    # kappas, both end points among them, and each bracket is two adjacent ones
    seen = []
    rng = np.random.default_rng(n)
    windows = [(2.0**-511, 1.3e154), (0.05, 4.0)]
    windows += [tuple(np.sort(10.0 ** rng.uniform(-150.0, 150.0, 2))) for _ in range(4)]
    for lo, hi in windows:
        # two centers, each with a state inside the window, far apart on its scale
        cs = [center((0.0, 0.0, 4.0 * i / min(lo, 1.0)),
                     from_bound_state(-(lo ** (1 - w) * hi ** w) ** 2))
              for i, w in enumerate((0.3, 0.6))]
        window = (-hi * hi, -lo * lo)
        seen.clear()
        with np.errstate(all="ignore"):  # the policy of the public callers
            eigenvalues = _eigenvalues_of(3, cs)
            ks, k_lo, k_hi, _, _ = pointgreen._brackets(
                lambda kap: seen.append(kap.copy()) or eigenvalues(kap), window, n)
        grid = np.geomspace(math.sqrt(-window[1]), math.sqrt(-window[0]), n)
        got = np.concatenate(seen)
        idx = np.searchsorted(grid, got)
        assert idx.max() < n and grid[idx].tobytes() == got.tobytes()
        assert {0, n - 1} <= set(idx.tolist())
        assert ks.size == 2, (lo, hi)
        assert (np.searchsorted(grid, k_hi) - np.searchsorted(grid, k_lo) == 1).all()


def _search_rounds(eigenvalues, window, grid_points):
    """The grid search's brackets, and how many batches of M it evaluated."""
    calls = []
    return pointgreen._brackets(lambda kap: calls.append(0) or eigenvalues(kap),
                                window, grid_points), len(calls)


def _golden_searches():
    """(eigenvalue function, window) of each golden layout: its given window,
    or the default one as bound_states finds it."""
    for dim, cs, window in _golden_layouts():
        eigenvalues = _eigenvalues_of(dim, cs)
        if window is None:
            e_min, e_max = pointgreen._search_window([c.coupling.bound_state_energy(dim) for c in cs], None)
            consts = renorm.coupling_constants(dim, [c.coupling for c in cs])
            limit = int(np.sum(consts > 0.0)) if dim == 1 else 0
            window = (pointgreen._window_bottom(eigenvalues, limit, e_min), e_max)
        yield eigenvalues, window


def test_grid_search_gives_the_full_grid_brackets_on_symmetric_layouts():
    # rings, squares, polygons and the cube hold degenerate multiplets, whose
    # branches cross zero in one grid cell: each searched bracket is the
    # full grid's, bit for bit
    for i, (eigenvalues, window) in enumerate(_golden_searches()):
        searched = pointgreen._brackets(eigenvalues, window, 400)
        for got, want in zip(searched, _full_grid_brackets(eigenvalues, window, 400), strict=True):
            assert got.tobytes() == want.tobytes(), i


def test_grid_search_brackets_in_three_rounds():
    # the coarse pass, then one round at the grid points around each
    # branch's predicted crossing, and at most one more
    three_centers = [center((0.0, 0.0), from_bound_state(-1.0)), center((1.0, 0.0), from_bound_state(-0.5)),
                     center((0.0, 1.5), from_bound_state(-2.0))]
    cases = [(eigenvalues, window, 400) for eigenvalues, window in _golden_searches()]
    cases.append((_eigenvalues_of(2, three_centers), (-32.0, -5e-7), 1_000_000))
    for i, case in enumerate(cases):
        (ks, *_), rounds = _search_rounds(*case)
        assert ks.size and rounds <= 3, (i, rounds)


def test_grid_search_takes_no_more_rounds_than_bisection(monkeypatch):
    # on every example of test_grid_search_gives_the_full_grid_outcome,
    # windows at the rounding floor among them, the coarse pass and a
    # bisection of its cells, isqrt(G) wide, down to adjacent points bound
    # the search's rounds
    search, calls, over = pointgreen._brackets, [], []

    def counted(eigenvalues, *args):
        calls.clear()
        try:
            return search(lambda kap: calls.append(0) or eigenvalues(kap), *args)
        finally:
            if len(calls) > (math.isqrt(args[-1]) - 1).bit_length() + 1:
                over.append((args[-2:], len(calls)))

    monkeypatch.setattr(pointgreen, "_brackets", counted)
    test_grid_search_gives_the_full_grid_outcome()
    assert not over



def _reference_brackets(eigenvalues, window, grid_points):
    """The grid search as it was kept per point, a reference for the batches
    and the outcome of :func:`deltagreen.pointgreen._brackets`: dicts keyed by
    grid index, a list of cells, each mu row as floats and a bisection over
    the negated counts."""
    e_min, e_max = window
    grid = np.geomspace(math.sqrt(-e_max), math.sqrt(-e_min), grid_points)
    batch = sorted({*range(0, grid_points, math.isqrt(grid_points)), grid_points - 1})
    # key: an evaluated index's count n_+, or -1 where M is not clear of rounding; n_plus: its
    # count; at: its mu, as floats
    cells, key, n_plus, at, first = list(zip(batch, batch[1:])), {}, {}, {}, True
    while batch:
        mu = eigenvalues(grid[batch])  # falls along each column
        size, count = np.abs(mu), (mu > 0.0).sum(axis=1)
        blurred = size.min(axis=1) <= POLE_TOL * size.max(axis=1)
        key.update(zip(batch, np.where(blurred, -1, count).tolist()))
        n_plus.update(zip(batch, count.tolist()))
        at.update(zip(batch, mu.tolist()))
        cut, batch, cells, n = cells, [], [], mu.shape[1]
        for lo, hi in cut:
            if hi - lo < 2 or key[lo] == key[hi] >= 0:
                continue
            falling = key[hi] >= 0 and key[lo] > key[hi]
            inner = set() if falling and first else {(lo + hi) // 2}
            if falling:  # each crossing branch's secant index j, and the points j - 2 .. j + 1
                crossing = slice(n - key[lo], n - key[hi])
                for a, b in zip(at[lo][crossing], at[hi][crossing]):  # a > 0 >= b
                    j = math.ceil(lo + (hi - lo) * a / (a - b))
                    inner.update(range(max(j - 2, lo + 1), min(j + 2, hi)))
            inner = sorted(inner)
            batch += inner
            cells += zip([lo, *inner], [*inner, hi])
        first = False
    done = sorted(at)
    count = [n_plus[i] for i in done]
    for p in range(len(done) - 1):
        if count[p + 1] > count[p]:  # M' > 0 forbids it: the signs that make the count are noise
            raise NonConvergenceError("positive eigenvalue count of M(E) rises as E falls",
                                      energy=float(-grid[done[p + 1]] ** 2))
    ks = np.arange(n - count[0], n - count[-1])
    # branch k is positive while n_+ >= n - k (the mu ascend): its bracket ends at the
    # first evaluated kappa past that, which a bisection finds as n_+ falls
    drop, branches = [-c for c in count], ks.tolist()
    ends = [bisect_right(drop, k - n) for k in branches]
    lo, hi = [done[p - 1] for p in ends], [done[p] for p in ends]
    return (ks, grid[lo], grid[hi], np.array([at[i][k] for i, k in zip(lo, branches)]),
            np.array([at[i][k] for i, k in zip(hi, branches)]))


def _batches_and_outcome(search, eigenvalues, window, grid_points):
    """The bytes of each kappa batch a grid search evaluates, and then the
    dtype and bytes of each array it returns, or the energy its guard names."""
    batches = []
    try:
        with np.errstate(all="ignore"):  # the policy of the public callers
            found = search(lambda kap: batches.append(kap.tobytes()) or eigenvalues(kap),
                           window, grid_points)
        return batches, [(a.dtype.str, a.tobytes()) for a in found]
    except NonConvergenceError as exc:
        return batches, exc.details["energy"]


#: Two 3D centers whose E_B lie 300 and 230 decades apart, each in a window
#: of about 300 decades: most cells of a fine grid are blurred.
_FAR_APART_3D = [
    ([center((0.0, 0.0, 0.0), from_bound_state(-1e-200)),
      center((1e100, 0.0, 0.0), from_bound_state(-1e100))], (-1e101, -1e-201)),
    ([center((0.0, 0.0, 0.0), from_bound_state(-1e-250)),
      center((0.0, 1e120, 0.0), from_bound_state(-1e-20))], (-1e-10, -1e-260)),
]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=_scan_cases())
@example(case=(3, *_FAR_APART_3D[0], 10**5))
@example(case=(3, *_FAR_APART_3D[1], 10**5))
def test_grid_search_requests_the_reference_batches(case):
    # the same kappa batches, point for point and bit for bit, as the search
    # kept per point, then the same brackets or the same guard energy
    dim, cs, window, grid_points = case
    eigenvalues = _eigenvalues_of(dim, cs)
    searched = _batches_and_outcome(pointgreen._brackets, eigenvalues, window, grid_points)
    assert searched == _batches_and_outcome(_reference_brackets, eigenvalues, window, grid_points)

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
    with pytest.raises(DomainError, match="search window"):
        bound_states(1, PAIR, search=(-math.inf, -1e-3))


@pytest.mark.parametrize("tol", [5e-324, 1e-320])
def test_a_tol_below_the_kappa_resolution_refines_to_resolution(tol):
    # tol kappa / 2 underflows to 0 at 5e-324: the refinement then runs to
    # floating-point resolution, as for any tol below it
    energies = [s.energy for s in bound_states(1, PAIR, tol=tol)]
    assert energies == pytest.approx(PAIR_ENERGIES, rel=1e-15)


def test_scan_entry_beyond_double_precision_is_a_domain_error(monkeypatch):
    # no input was found whose M(E) overflows at a scan energy (the factories
    # keep every coupling's constant finite), so a patched kernel overflows
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


@pytest.mark.parametrize("first", [0, 1, 2])
def test_the_first_multiplet_with_non_positive_m_prime_names_its_energy(monkeypatch, first):
    # the octagon's multiplets hold 1, 2, 1 and 1 states; the step reads -M'
    # from multiplet `first` on, so its energy is the one the error names
    energies = sorted({st_.energy for st_ in bound_states(2, _polygon(*OCTAGON), method="scan")})
    cut, m_of_kappa = math.sqrt(-energies[first]), pointgreen._m_of_kappa

    def conjugated(*args):
        m = m_of_kappa(*args)
        later = args[-1].real <= cut  # a real M, the scan's, stays as it is
        m[later] = m[later].conj()
        return m

    monkeypatch.setattr(pointgreen, "_m_of_kappa", conjugated)
    with pytest.raises(NonConvergenceError, match="non-positive dM/dE") as err:
        bound_states(2, _polygon(*OCTAGON), method="scan")
    assert err.value.details["energy"] == energies[first]


def _with_degenerate_multiplet(dim):
    # every layout holds a degenerate multiplet
    if dim == 1:  # two far centers bind a pair at E = -1
        return [center(-1e300, from_bound_state(-1.0)), center(0.0, from_bound_state(-0.5)),
                center(1.5, bare_1d(-3.0)), center(1e300, from_bound_state(-1.0))]
    return _polygon(8, 0.8688571362282915, -1.171857857912272) if dim == 2 else _triangle()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_one_residue_pass_per_scan_matches_each_multiplet_alone(monkeypatch, dim):
    m_of_kappa, residue_vectors = pointgreen._m_of_kappa, pointgreen._residue_vectors
    assembled, passes = [], []

    def counting(*args):
        assembled.append(args[-1])
        return m_of_kappa(*args)

    def recording(*args):
        before = len(assembled)
        blocks = residue_vectors(*args)
        passes.append((args, blocks, len(assembled) - before))
        return blocks

    monkeypatch.setattr(pointgreen, "_m_of_kappa", counting)
    monkeypatch.setattr(pointgreen, "_residue_vectors", recording)
    cs = _with_degenerate_multiplet(dim)
    bound_states(dim, cs, method="scan")
    assert len(passes) == 1
    (*head, multiplets), blocks, assemblies = passes[0]
    assert assemblies == 2  # M(E_B) and its complex step, for every multiplet at once
    assert len(multiplets) >= 2 and max(len(b) for _, b in multiplets) >= 2
    for multiplet, block in zip(multiplets, blocks, strict=True):
        (alone,) = residue_vectors(*head, [multiplet])
        assert alone.shape == block.shape and alone.tobytes() == block.tobytes()


def test_residue_normalization_failure_names_its_multiplet(monkeypatch):
    m_of_kappa = pointgreen._m_of_kappa

    def conjugated_after_the_first(*args):
        # the complex step at the second multiplet reads -M'
        m = m_of_kappa(*args)
        m[1:] = m[1:].conj()
        return m

    monkeypatch.setattr(pointgreen, "_m_of_kappa", conjugated_after_the_first)
    with pytest.raises(NonConvergenceError) as err:
        bound_states(1, PAIR)
    assert err.value.details["energy"] == pytest.approx(PAIR_ENERGIES[1], rel=1e-12)


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
    # first excited state is odd: near-zero at the centroid; its coefficients
    # tie, so it is positive next to the first center in coordinate order
    assert abs(residue_wavefunction(states[1], 0.0)) < 1e-12
    assert residue_wavefunction(states[1], -1.5) > 0.0


@pytest.mark.parametrize("dim,pos,specs", [
    (1, [-2.372, -1.901, -0.775, 2.003], [bare_1d(lam) for lam in (-1.618, -2.58, -4.909, -4.82)]),
    (2, [(0.0, 0.1), (1.6, -0.2), (0.3, 1.4), (1.45, 1.7)],
     [from_bound_state(e) for e in (-1.0, -0.7, -1.9, -0.4)]),
    (3, [(0.0, 0.1, 0.0), (1.2, -0.2, 0.3), (0.3, 1.1, -0.2), (1.05, 1.3, 0.9)],
     [from_bound_state(e) for e in (-1.0, -0.7, -1.9, -0.4)]),
], ids=["1d", "2d", "3d"])
def test_residue_sign_follows_the_largest_coefficient(dim, pos, specs):
    # each state's coefficient of largest magnitude is negative: G0 < 0, so
    # psi is positive next to that center (G0 diverges there in 2D and 3D)
    states = bound_states(dim, [center(p, s) for p, s in zip(pos, specs)])
    assert len(states) > 1
    for state in states:
        lead = int(np.argmax(np.abs(state.residue_vector)))
        assert state.residue_vector[lead] < 0.0
        if dim >= 2:
            near = np.array(pos[lead]) + 1e-3 / math.sqrt(dim)
            assert residue_wavefunction(state, tuple(near)) > 0.0


@pytest.mark.parametrize("dim,sep", [(1, 800.0), (1, 2000.0), (3, 800.0), (3, 3000.0)])
def test_residue_sign_when_every_probe_underflows(dim, sep):
    # psi of each state underflows to 0 near the centroid at the larger
    # separations; it is positive next to its dominant center all the same
    spec = bare_1d if dim == 1 else lambda e_b: from_bound_state(0.5 * e_b)
    near, want = (0.0, 1.0) if dim == 1 else (0.3, 0.985146)
    pad = (0.0,) * (dim - 1)
    centers = [center((0.0,) + pad, spec(-2.0)), center((sep,) + pad, spec(-1.0))]
    deep, shallow = bound_states(dim, centers)
    assert deep.energy == pytest.approx(-1.0, rel=1e-12)
    assert residue_wavefunction(deep, (near,) + pad) == pytest.approx(want, rel=1e-6)
    assert residue_wavefunction(shallow, (sep + near,) + pad) > 0.0


def _psi(state, points):
    return np.array([residue_wavefunction(state, x) for x in points])


@pytest.mark.parametrize("dim", [2, 3])
def test_residue_sign_of_a_symmetric_square_ignores_the_center_order(dim):
    # the top state's coefficients tie in magnitude (it is odd in x and in
    # y): its sign comes from the first center in coordinate order, whatever
    # the order of the list
    square = [(0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (2.0, 2.0)]
    pos = [p + (0.0,) * (dim - 2) for p in square]
    points = [(0.3, -0.7, 0.2), (1.1, 0.4, 0.5), (2.6, 1.9, 0.0)]
    points = [p[:dim] for p in points]
    first = None
    for order in itertools.permutations(range(4)):
        states = bound_states(dim, [center(pos[i], from_bound_state(-1.0)) for i in order])
        energies = [s.energy for s in states]
        psis = [_psi(s, points) for s in states]
        if first is None:
            first = energies, psis
            assert energies[-1] == pytest.approx(-0.4551783484132904 if dim == 2
                                                 else -0.7207578890555207, rel=1e-12)
            continue
        assert energies == pytest.approx(first[0], rel=1e-13)
        for e, psi, want in zip(energies, psis, first[1]):
            if energies.count(e) == 1:
                assert np.max(np.abs(psi - want)) <= 1e-9 * np.max(np.abs(want))


@st.composite
def _rigid_motion_cases(draw, kind):
    """A jittered layout of 2-8 centers, each binding alone, and one exact
    symmetry of the Hamiltonian: a permutation of the list, a translation,
    the reflection x -> -x (1D) or a 90 degree rotation of two axes."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    sites = draw(st.lists(st.tuples(*[st.integers(0, 3)] * dim), min_size=n, max_size=n,
                          unique=True))
    jitter = draw(st.lists(st.floats(-0.3, 0.3), min_size=n * dim, max_size=n * dim))
    pos = 1.5 * np.array(sites, dtype=float) + np.reshape(jitter, (n, dim))
    e_bs = draw(st.lists(st.floats(-2.0, -0.25), min_size=n, max_size=n))
    bare = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    make = {1: lambda e: bare_1d(-2.0 * math.sqrt(-e)),
            2: lambda e: renormalized_2d(4.0 * math.pi / math.log(-e / 4.0), 2.0),
            3: lambda e: renormalized_3d(4.0 * math.pi / math.sqrt(-e))}[dim]
    specs = [make(e) if b else from_bound_state(e) for e, b in zip(e_bs, bare)]
    order = list(range(n))
    if kind == "permute":
        order = draw(st.permutations(order))
        move = lambda x: x
    elif kind == "translate":
        shift = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=dim, max_size=dim)))
        move = lambda x: x + shift
    elif dim == 1:
        move = lambda x: -x
    else:
        i, j = draw(st.permutations(range(dim)))[:2]

        def move(x):
            y = np.array(x, dtype=float)
            y[i], y[j] = -x[j], x[i]
            return y

    return dim, pos, specs, order, move


@pytest.mark.parametrize("kind", ["permute", "translate", "reflect_or_rotate"])
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_exact_symmetries_keep_the_states(kind, data):
    dim, pos, specs, order, move = data.draw(_rigid_motion_cases(kind))
    centroid = pos.mean(axis=0)
    points = [centroid + np.array(d[:dim]) for d in
              ((0.37, 0.21, 0.13), (-0.52, -0.44, 0.29), (1.61, -0.27, -0.35))]
    # each root lies within tol |E| of its energy, so 5e-13 holds for any draw
    before = bound_states(dim, [center(tuple(p), s) for p, s in zip(pos, specs)], tol=1e-14)
    after = bound_states(dim, [center(tuple(move(pos[i])), specs[i]) for i in order], tol=1e-14)
    e0, e1 = [s.energy for s in before], [s.energy for s in after]
    assert [e0.count(e) for e in e0] == [e1.count(e) for e in e1]
    assert e1 == pytest.approx(e0, rel=5e-13, abs=0.0)
    moved = [move(x) for x in points]
    for e in dict.fromkeys(e0):
        # sum_a psi_a(x) psi_a(y) over a multiplet: free of signs and bases
        k = [i for i, f in enumerate(e0) if f == e]
        want = sum(np.outer(_psi(before[i], points), _psi(before[i], points)) for i in k)
        got = sum(np.outer(_psi(after[i], moved), _psi(after[i], moved)) for i in k)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["permute", "translate", "reflect_or_rotate"])
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_exact_symmetries_keep_the_sign_of_each_state(kind, data):
    # a non-degenerate state with one dominant coefficient keeps its sign
    # under every symmetry above: psi itself moves with the centers
    dim, pos, specs, order, move = data.draw(_rigid_motion_cases(kind))
    points = [pos.mean(axis=0) + np.array(d[:dim]) for d in
              ((0.37, 0.21, 0.13), (-0.52, -0.44, 0.29), (1.61, -0.27, -0.35))]
    before = bound_states(dim, [center(tuple(p), s) for p, s in zip(pos, specs)])
    after = bound_states(dim, [center(tuple(move(pos[i])), specs[i]) for i in order])
    e0, e1 = [s.energy for s in before], [s.energy for s in after]
    assert [e0.count(e) for e in e0] == [e1.count(e) for e in e1]
    moved = [move(x) for x in points]
    for b, a, e in zip(before, after, e0):
        top = np.sort(np.abs(b.residue_vector))[::-1]
        if e0.count(e) == 1 and top[0] - top[1] > 1e-6 * top[0]:
            psi = _psi(b, points)
            assert np.max(np.abs(_psi(a, moved) - psi)) <= 1e-9 * np.max(np.abs(psi))


@st.composite
def _scaled_layouts(draw):
    """A jittered layout of 2-8 eb centers, at least 0.9 apart, and k for a
    scale s = 2^k: at k >= -30 the scaled centers stay 8.4e-10 apart, clear
    of CENTER_DISTINCT_TOL."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    sites = draw(st.lists(st.tuples(*[st.integers(0, 7)] * dim), min_size=n, max_size=n,
                          unique=True))
    jitter = draw(st.lists(st.floats(-0.3, 0.3), min_size=n * dim, max_size=n * dim))
    pos = 1.5 * np.array(sites, dtype=float) + np.reshape(jitter, (n, dim))
    e_bs = draw(st.lists(st.floats(-2.0, -0.25), min_size=n, max_size=n))
    return dim, pos, e_bs, draw(st.integers(-30, 500))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(case=_scaled_layouts())
def test_scaling_the_lengths_scales_the_states(case):
    # H = -laplacian + sum lambda_i delta(x - a_i) maps to itself under
    # x -> s x, E -> E / s^2, each E_B with it; a power of 2 scales exactly,
    # so the states keep their multiplets, and E s^2 its value: each root lies
    # within tol |E| of it, and the rounding of M(E) moves it by about
    # eps ||M|| |c|^2 (dmu/dE = 1/|c|^2 along the residue vector c), the
    # floor of a shallow state beside deep ones
    dim, pos, e_bs, k = case
    s = 2.0**k
    before, after = (bound_states(dim, [center(tuple(p * f), from_bound_state(e / (f * f)))
                                        for p, e in zip(pos, e_bs)], tol=1e-14) for f in (1.0, s))
    e0, e1 = [x.energy for x in before], [x.energy * s * s for x in after]
    assert [e0.count(e) for e in e0] == [e1.count(e) for e in e1]
    for x, e in zip(before, e1):
        m = m_matrix(dim, x.energy, x.centers).entries.real
        floor = 4.0 * np.finfo(float).eps * np.linalg.norm(m, 2) * np.sum(x.residue_vector**2)
        assert abs(e - x.energy) <= 1e-13 * abs(x.energy) + floor


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


@pytest.mark.parametrize("dim", [2, 3])
def test_residue_wavefunction_keeps_every_error(dim):
    # psi goes to the closed-form kernel unchecked, so the checks stay in
    # front of it: each bad probe is one typed error, never a numpy warning
    origin, far = (0.0,) * dim, (-1e308,) + (0.0,) * (dim - 1)
    state = bound_states(dim, [center(origin, from_bound_state(-1.0))])[0]
    far_state = bound_states(dim, [center(far, from_bound_state(-1.0))])[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # at a center: the kernel's coincidence error, with its details
        with pytest.raises(CoincidentPointsError) as err:
            residue_wavefunction(state, origin)
        assert err.value.details == {"dim": dim, "r": 0.0}
        with pytest.raises(DomainError):
            residue_wavefunction(far_state, (1e308,) + (0.0,) * (dim - 1))
        with pytest.raises(IllegalSpecError):
            residue_wavefunction(state, (0.5,) * (dim + 1))
        # the kernel underflows to 0 far out, with 4 pi r past the doubles in 3D
        assert residue_wavefunction(state, (1e300,) + (0.0,) * (dim - 1)) == 0.0
        assert residue_wavefunction(far_state, (0.0,) * (dim - 1) + (1e300,)) == 0.0


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


def _reference_pair_distances(pos):
    """The layout built from scratch on every call: per-pair coordinate
    gathers, hypot-style lengths where a square overflows, the slot scatter."""
    n = len(pos)
    pairs = np.triu_indices(n, 1)
    diffs = [c[pairs[0]] - c[pairs[1]] for c in pos.T]
    r = np.sqrt(sum(d**2 for d in diffs))
    if (big := np.isinf(r)).any():
        parts = [np.abs(d[big]) for d in diffs]
        scale = np.maximum.reduce(parts)
        r[big] = scale * np.sqrt(sum((p / scale) ** 2 for p in parts))
        if not np.isfinite(r).all():
            raise DomainError("distance overflows double precision")
    close = np.flatnonzero(r < pointgreen.CENTER_DISTINCT_TOL)
    if close.size:
        raise IllegalSpecError("coincident centers (closer than 1e-10) are one center",
                               i=int(pairs[0][close[0]]), j=int(pairs[1][close[0]]))
    slots = np.empty((n, n), dtype=np.intp)
    slots[pairs] = slots[pairs[::-1]] = np.arange(r.size)
    slots[np.diag_indices(n)] = r.size + np.arange(n)
    return slots, r


def _layout_outcome(func, pos):
    """The bytes of the slot map and distances, or the error class and payload."""
    try:
        with np.errstate(all="ignore"):
            slots, r = func(pos)
    except DeltaGreenError as err:
        return type(err), err.details
    return slots.tobytes(), r.dtype, r.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cached_layout_gives_the_per_call_layout_bit_for_bit(dim):
    # N = 1..300 (N = 1 has no pair), at unit scale and where some or all squares overflow
    for n in range(1, 301):
        rng = np.random.default_rng([dim, n])
        scale = (1.0, 1e154, 1e200)[n % 3]
        pos = rng.uniform(-1.0, 1.0, (n, dim)) * scale
        if n % 7 == 4:  # two coincident pairs: the first in row-major order is named
            i, j, k, m = np.sort(rng.choice(n, 4, replace=False))
            pos[m], pos[k] = pos[i], pos[j] + 1e-11 * scale
        want = _layout_outcome(_reference_pair_distances, pos)
        assert _layout_outcome(pointgreen._pair_distances, pos) == want, (n, scale)
    # a difference past the doubles is one DomainError either way
    pos = np.array([[1e308] * dim, [0.0] * dim, [-1e308] * dim])
    assert _layout_outcome(pointgreen._pair_distances, pos)[0] is DomainError
    assert _layout_outcome(pointgreen._pair_distances, pos) == _layout_outcome(_reference_pair_distances, pos)


def test_cached_layout_is_read_only_and_kept_per_center_count():
    pairs, slots = pointgreen._layout(5)
    # the pairs' ends as 4-byte indices: no more bytes per N than an 8-byte
    # flat index of each pair
    assert pairs.dtype == np.int32 and pairs.tolist() == [list(a) for a in np.triu_indices(5, 1)]
    assert pairs.nbytes + slots.nbytes == 8 * 10 + 8 * 25
    for arr in (pairs, slots, pointgreen._probe(5)):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert pointgreen._layout(5)[0] is pairs and pointgreen._layout(5)[1] is slots
    assert pointgreen._probe(5) is pointgreen._probe(5)
    assert pointgreen._pair_distances(np.arange(5.0)[:, None])[0] is slots
    # past the largest cached count each call builds its own layout
    n = pointgreen.LAYOUT_CACHE_MAX_N + 1
    first, second = pointgreen._layout(n), pointgreen._layout(n)
    assert first[1] is not second[1]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


def test_distances_beyond_the_squares_scale_like_hypot():
    # the helpers run under their public callers' floating-point policy
    pos = np.array([[0.0, 0.0], [3.0, 4.0], [3e200, 4e200], [-1e300, 1e-300]])
    with np.errstate(all="ignore"):
        _, r = pointgreen._pair_distances(pos)
    want = [math.hypot(*(a - b)) for a, b in itertools.combinations(pos, 2)]
    assert r == pytest.approx(want, rel=1e-15)
    x = SpatialPoint((-3e200, 0.0))
    want = [math.hypot(*(p - x.coords)) for p in pos]
    with np.errstate(all="ignore"):
        got = pointgreen._distances_to(x, pos)
    assert got == pytest.approx(want, rel=1e-15)
    # entries whose squares stay finite keep the plain sum of squares
    pos = np.array([[0.1, 0.7], [0.3, -1.9], [1e300, 0.0]])
    with np.errstate(all="ignore"):
        _, r = pointgreen._pair_distances(pos)
    assert r[0] == np.sqrt((0.1 - 0.3) ** 2 + (0.7 + 1.9) ** 2)
    with np.errstate(all="ignore"):
        got = pointgreen._distances_to(SpatialPoint((0.2, -0.5)), pos)
    assert list(got[:2]) == [np.sqrt((0.1 - 0.2) ** 2 + (0.7 + 0.5) ** 2),
                             np.sqrt((0.3 - 0.2) ** 2 + (-1.9 + 0.5) ** 2)]


def test_rejects_distances_beyond_double_range():
    far = [center(-1e308, bare_1d(-2.0)), center(1e308, bare_1d(-2.0))]
    with pytest.raises(DomainError):
        m_matrix(1, -1.0, far)
    with pytest.raises(DomainError):
        green(1, -2.0, _pt(1e308), _pt(0.0), far[:1])


def test_rejects_wrong_dimension_coupling():
    with pytest.raises(IllegalSpecError):
        center((0.0, 0.0, 0.0), bare_1d(-2.0))
    with pytest.raises(UnsupportedDimError):
        center((0.0,) * 4, bare_1d(-2.0))
    with pytest.raises(IllegalSpecError):
        m_matrix(2, -1.0, [center((0.0,), bare_1d(-2.0))])


@pytest.mark.parametrize("build, error", [
    (lambda: CouplingSpec("bare_1d", lam=0.0), ZeroCouplingError),
    (lambda: CouplingSpec("bare_1d", lam=math.nan), DomainError),
    (lambda: CouplingSpec("from_bound_state", e_b=1.0), DomainError),
    (lambda: CouplingSpec("bare_1d", lam=-2.0, e_b=-5.0), IllegalSpecError),
    (lambda: CouplingSpec("from_bound_state", lam=-2.0), IllegalSpecError),
    (lambda: CouplingSpec("ren_2d", lambda_r=-1.0), IllegalSpecError),
    (lambda: CouplingSpec("nonsense"), IllegalSpecError),
    (lambda: DeltaCenter(_pt(0.0), -2.0), IllegalSpecError),
], ids=["lam0", "lam_nan", "eb_positive", "extra_field", "wrong_field", "missing_field",
        "unknown_variant", "coupling_not_a_spec"])
def test_direct_construction_is_checked(build, error):
    # each value type checks itself when built, so no path reaches the math unchecked
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("build, details", [
    (lambda: bare_1d("x"), {"field": "lam", "type": "str"}),
    (lambda: renormalized_2d("a", 1.0), {"field": "lambda_r", "type": "str"}),
    (lambda: renormalized_2d(-1.0, b"1"), {"field": "mu", "type": "bytes"}),
    (lambda: bare_1d(1j), {"field": "lam", "type": "complex"}),
    (lambda: renormalized_3d(1j), {"field": "lambda_r", "type": "complex"}),
    (lambda: from_bound_state(np.complex128(-1.0)), {"field": "e_b", "type": "complex128"}),
    (lambda: bare_1d(True), {"field": "lam", "type": "bool"}),
    (lambda: from_bound_state(np.bool_(True)), {"field": "e_b", "type": "bool"}),
    (lambda: from_bound_state(None), {"fields": [], "variant": "from_bound_state"}),
    (lambda: CouplingSpec(["bare_1d"], lam=-2.0), {"fields": ["lam"], "variant": ["bare_1d"]}),
    (lambda: CouplingSpec({}, lam=-2.0), {"fields": ["lam"], "variant": {}}),
    (lambda: CouplingSpec(1, lam=-2.0), {"fields": ["lam"], "variant": 1}),
], ids=["str", "str_2d", "bytes_mu", "complex", "complex_3d", "numpy_complex", "bool",
        "numpy_bool", "none",
        "unhashable_variant", "dict_variant", "int_variant"])
def test_bad_coupling_fields_are_illegal_specs(build, details):
    # a field that is no real number, or a variant that is no known name, is one
    # typed error naming the field, never a bare ValueError or TypeError
    with pytest.raises(IllegalSpecError) as info:
        build()
    assert info.value.details == details


@pytest.mark.parametrize("build, details", [
    (lambda: SpatialPoint(("x",)), {"field": "coords", "type": "str"}),
    (lambda: SpatialPoint(None), {"field": "coords", "type": "NoneType"}),
    (lambda: SpatialPoint((1.0, True)), {"field": "coords", "type": "bool"}),
    (lambda: renorm.bubble_regularized(2, 1.0, "x"), {"field": "lambda_cap", "type": "str"}),
    (lambda: renorm.bare_from_renormalized(3, renormalized_3d(1.0), "x"), {"field": "lambda_cap", "type": "str"}),
    (lambda: renorm.friedman_report(1.0, [10.0, "x"]), {"field": "lambda_cap", "type": "str"}),
    (lambda: ComplexEnergy("x"), {"field": "value", "type": "str"}),
    (lambda: ComplexEnergy(None), {"field": "value", "type": "NoneType"}),
    (lambda: Lattice1D(1.0, "x"), {"field": "points", "type": "str"}),
    (lambda: Lattice1D("x", 11), {"field": "half_width", "type": "str"}),
    (lambda: center("x", bare_1d(-2.0)), {"field": "coords", "type": "str"}),
    (lambda: residue_wavefunction(bound_states(1, PAIR)[0], "x"), {"field": "coords", "type": "str"}),
    (lambda: g0(3, -1.0, None, _pt(0.0, 0.0, 1.0)), {"field": "coords", "type": "NoneType"}),
    (lambda: bound_states(3, [1]), {"field": "centers", "type": "int"}),
], ids=["point_str", "point_none", "point_bool", "cutoff_str", "cutoff_str_bare", "cutoff_str_friedman",
        "energy_str", "energy_none", "lattice_points_str", "lattice_width_str", "center_str", "probe_str", "g0_none",
        "center_int"])
def test_bad_value_type_fields_are_illegal_specs(build, details):
    # every value type converts its fields in one helper: a field of the wrong
    # kind is one typed error naming it, never a bare ValueError, TypeError or
    # AttributeError, and a bool is no number
    with pytest.raises(IllegalSpecError) as info:
        build()
    assert info.value.details == details


def test_integer_couplings_beyond_the_doubles_are_infinite():
    # float() of such an int overflows; the spec sees the infinity it stands for
    with pytest.raises(DomainError) as info:
        bare_1d(-10**400)
    assert info.value.details == {"lam": -math.inf}
    with pytest.raises(ZeroCouplingError):
        renormalized_3d(10**400)


def test_factories_and_constructors_build_equal_values():
    assert center is DeltaCenter
    assert bare_1d(-2) == CouplingSpec("bare_1d", lam=-2.0)
    assert renormalized_2d(np.float64(-1.0), 1) == CouplingSpec("ren_2d", lambda_r=-1.0, mu=1.0)
    assert renormalized_3d(4.0) == CouplingSpec("ren_3d", lambda_r=4.0)
    assert from_bound_state(-1.0) == CouplingSpec("from_bound_state", e_b=-1.0)
    spec = renormalized_2d(-1, 1)
    assert (spec.lam, spec.lambda_r, spec.mu, spec.e_b) == (None, -1.0, 1.0, None)
    assert type(spec.lambda_r) is float and type(spec.mu) is float
    for position in (0.5, (0.5,), _pt(0.5), np.array([0.5])):
        c = DeltaCenter(position, bare_1d(-2.0))
        assert c == center(_pt(0.5), bare_1d(-2.0)) and c.position == _pt(0.5)


def test_bound_states_carry_their_read_only_positions():
    states = bound_states(1, PAIR)
    for s in states:
        assert s.positions.tolist() == [[-1.0], [1.0]]
        assert not s.positions.flags.writeable
    with pytest.raises(ValueError):
        states[0].positions[0, 0] = 0.0


def test_rejects_empty_center_list():
    with pytest.raises(IllegalSpecError):
        m_matrix(1, -1.0, [])
    with pytest.raises(IllegalSpecError):
        bound_states(1, [])
