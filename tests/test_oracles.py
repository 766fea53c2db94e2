"""The brute-force verifiers themselves: quadrature, lattices, shooting, wells.

These tests pin the oracles against closed forms and against each other, so
that when an oracle certifies production code the certificate means something.
"""

import math

import mpmath as mp
import pytest
from scipy.special import k0 as scipy_k0

from deltagreen import (
    bare_1d,
    bound_states,
    center,
    from_bound_state,
    g0,
    residue_wavefunction,
)
from deltagreen.errors import (
    CoincidentPointsError,
    DispersionError,
    DomainError,
    IllegalSpecError,
    InsufficientBoxError,
    TailBoundExceededError,
    UnsupportedDimError,
)
from deltagreen.greenfn import SpatialPoint
from deltagreen import oracles
from deltagreen.oracles import (
    Lattice1D,
    SquareWell3D,
    g0_by_quadrature,
    lattice1d_resolvent,
    lattice1d_spectrum,
    lattice1d_transmission,
    shooting1d,
    shrinking_well_depth,
    square_well_radial,
)

ONE = (center(0.0, bare_1d(-2.0)),)
PAIR = (center(-1.0, bare_1d(-2.0)), center(1.0, bare_1d(-2.0)))
PAIR_ENERGIES = (-1.2295650725757956, -0.6349095705470416)


# -------------------------------------------------------------- quadrature


def test_quadrature_matches_2d_bessel():
    for energy, r in ((-0.25, 2.0), (-1e4, 1e-3)):  # small r: kappa r = 0.1
        want = -scipy_k0(math.sqrt(-energy) * r) / (2.0 * math.pi)
        assert g0_by_quadrature(2, energy, r) == pytest.approx(want, rel=1e-13, abs=1e-10)


def test_quadrature_matches_2d_bessel_at_small_energy():
    # kappa r = 1e-3: slowly decaying kernel, where an oscillatory momentum-space
    # quadrature is off by 1.2e-6 with its two working precisions agreeing
    want = -mp.besselk(0, mp.mpf("1e-3")) / (2 * mp.pi)
    assert g0_by_quadrature(2, -1e-6, 1.0) == pytest.approx(float(want), abs=1e-10)


def test_quadrature_matches_3d_exponential():
    for energy, r in ((-1.0, 1.0), (-1e-4, 50.0)):  # large r: kappa r = 0.5
        want = -math.exp(-math.sqrt(-energy) * r) / (4.0 * math.pi * r)
        assert g0_by_quadrature(3, energy, r) == pytest.approx(want, rel=1e-13, abs=1e-10)


def test_quadrature_matches_1d_coincident():
    for energy, want in ((-4.0, -0.25), (-1e4, -0.005)):  # strong |E|: kappa = 100
        assert g0_by_quadrature(1, energy, 0.0) == pytest.approx(want, rel=1e-13, abs=1e-10)


def test_quadrature_domain_checks():
    with pytest.raises(UnsupportedDimError):
        g0_by_quadrature(4, -1.0, 1.0)
    with pytest.raises(DomainError):
        g0_by_quadrature(1, 0.0, 1.0)
    with pytest.raises(DomainError):
        g0_by_quadrature(1, math.nan, 1.0)
    with pytest.raises(DomainError):
        g0_by_quadrature(1, -1.0, -0.5)
    with pytest.raises(DomainError):
        g0_by_quadrature(1, -1.0, 1.0, tol=1e-12)
    for dim in (2, 3):
        with pytest.raises(CoincidentPointsError):
            g0_by_quadrature(dim, -1.0, 0.0)


def test_quadrature_two_precision_guard(monkeypatch):
    # force the dps-20 and dps-30 passes apart: the guard must refuse to
    # return a value rather than pick one
    monkeypatch.setattr(
        oracles, "_g0_quad_at", lambda dim, e, r, dps: 1.0 + (1e-3 if dps == 30 else 0.0)
    )
    with pytest.raises(TailBoundExceededError):
        g0_by_quadrature(1, -1.0, 1.0)


# ----------------------------------------------------------------- lattice


def test_lattice_geometry():
    lat = Lattice1D(1.0, 201)
    assert lat.h == pytest.approx(0.01, rel=1e-15)
    assert lat.grid()[0] == -1.0
    assert lat.grid()[-1] == 1.0
    with pytest.raises(DomainError):
        Lattice1D(-1.0, 100)
    with pytest.raises(DomainError):
        Lattice1D(1.0, 2)


def test_lattice_spectrum_single_center():
    e0 = lattice1d_spectrum(ONE, Lattice1D(18.0, 3601), 1)[0]
    assert abs(e0 + 1.0) < 5e-5  # measured h^2/4 = 2.5e-5 at h = 0.01


def test_lattice_spectrum_superconverges():
    errs = [
        abs(lattice1d_spectrum(ONE, Lattice1D(16.0, n), 1)[0] + 1.0)
        for n in (1601, 3201)
    ]
    order = math.log2(errs[0] / errs[1])
    assert order > 1.8  # on-site delta on the grid point: O(h^2)


def test_lattice_spectrum_repulsive_has_no_bound_state():
    # a repulsive delta binds nothing, so the lowest box state is a
    # delocalized standing wave; the leak guard must refuse to certify it
    with pytest.raises(InsufficientBoxError):
        lattice1d_spectrum((center(0.0, bare_1d(2.0)),), Lattice1D(12.0, 1201), 3)


def test_lattice_spectrum_two_centers():
    vals = lattice1d_spectrum(PAIR, Lattice1D(25.0, 5001), 2)
    assert vals == pytest.approx(PAIR_ENERGIES, abs=1e-3)


def test_lattice_spectrum_guards():
    with pytest.raises(InsufficientBoxError):
        lattice1d_spectrum(ONE, Lattice1D(2.0, 401), 1)
    with pytest.raises(DomainError):
        lattice1d_spectrum(ONE, Lattice1D(10.0, 1000), 1)  # even point count
    with pytest.raises(DomainError):
        lattice1d_spectrum(ONE, Lattice1D(10.0, 1001), 0)
    with pytest.raises(DomainError):
        lattice1d_spectrum((center(30.0, bare_1d(-2.0)),), Lattice1D(10.0, 1001), 1)
    with pytest.raises(IllegalSpecError):
        lattice1d_spectrum((center(0.0, from_bound_state(-1.0)),), Lattice1D(10.0, 1001), 1)


def test_lattice_resolvent_free_case():
    got = lattice1d_resolvent([], Lattice1D(20.48, 4097), -1.0, 0.3, -0.2)
    want = g0(1, -1.0, SpatialPoint.of(0.3), SpatialPoint.of(-0.2)).value.real
    assert got == pytest.approx(want, abs=1e-4)


def test_lattice_resolvent_guards():
    lat = Lattice1D(10.0, 1001)
    with pytest.raises(DomainError):
        lattice1d_resolvent(ONE, lat, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        lattice1d_resolvent(ONE, lat, -1.0, 50.0, 0.0)


# ---------------------------------------------------------------- shooting


def test_shooting_single_center():
    roots = shooting1d(ONE, (0.5, 1.5))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0, abs=1e-11)


def test_shooting_two_centers_frozen_values():
    roots = shooting1d(PAIR, (0.3, 1.6))
    assert len(roots) == 2
    assert roots == pytest.approx((0.7968121300200433, 1.108857552878545), abs=1e-9)
    # cross-route: the eigenvalue-branch search must land on the same energies
    scanned = [s.energy for s in bound_states(1, PAIR)]
    assert scanned == pytest.approx([-r * r for r in reversed(roots)], abs=1e-10)


def test_shooting_weak_coupling():
    roots = shooting1d((center(0.0, bare_1d(-2e-4)),), (1e-5, 1e-3))
    assert roots  # a grid-adjacent root may be reported from both sides
    for r in roots:
        assert r == pytest.approx(1e-4, rel=1e-6)


# bare 1D layouts (position, lambda), each with a window holding two states
# less than one cell of a 4000-point kappa grid apart, and those two energies
ONE_CELL_PAIRS = [
    (  # dkappa = 4.6e-4: both halves of the split cell hold one state
        ((3.225566634924, -1.6918704152257062), (10.647290662423, -2.7051854488296754),
         (1.168605698155, -2.5698978931766523), (4.233723776287, -1.8074858153906324),
         (5.915898168273, -2.6235016322656675), (7.451463596687, -2.3571762754430963),
         (16.625592263443, -2.2686439941868093), (15.091471493076, -1.851245473201667),
         (9.077186197634, -1.0832301326425), (-0.196261393562, -2.71822187950151),
         (12.359408620283, -2.705487405556795), (13.796373379207, -2.200904220254675)),
        (-29.55492074480289, -0.0007333672001654302), 9, (-2.2493834985615, -2.2480064271868),
    ),
    (  # dkappa = 3.6e-4: one half of the split cell holds both, the other none
        ((0.147265901337, -1.0251208893977684), (1.415653468573, -2.5209660565502325),
         (3.081867797589, -2.210454145753694), (4.269084639281, -1.931590200359633),
         (5.834192755928, -2.58175458069302), (7.669413756741, -2.521945923263015),
         (9.195398204653, -1.863015661759335), (10.520462952632, -1.338710069264918),
         (12.021616654147, -1.1866568437666298), (13.332538277729, -2.062140614263885),
         (14.7467767684, -2.6143831215229407), (16.516360583979, -1.0611177395248197),
         (18.105168223494, -2.388705454406035), (19.273041366459, -1.3419688316484497),
         (21.11151419656, -2.3430287045189537), (22.146891806805, -2.2943772454982763)),
        (-27.339996424416142, -0.0006567955236747949), 10, (-2.0491069434419, -2.0480751682117),
    ),
]


@pytest.mark.parametrize("line, window, count, pair", ONE_CELL_PAIRS, ids=["split", "one-sided"])
def test_shooting_separates_states_in_one_grid_cell(line, window, count, pair):
    # the growing coefficient changes sign twice inside one cell; the node
    # count drops by two there, so the cell is halved before polishing
    cs = [center(p, bare_1d(lam)) for p, lam in line]
    roots = shooting1d(cs, (math.sqrt(-window[1]), math.sqrt(-window[0])), 4000)
    shot = sorted(-k * k for k in roots)
    assert len(shot) == count
    assert [e for e in shot if pair[0] - 1e-9 < e < pair[1] + 1e-9] == pytest.approx(pair, abs=1e-12)
    scanned = [s.energy for s in bound_states(1, cs, search=window, method="scan")]
    assert scanned == pytest.approx(shot, abs=1e-12)


def test_shooting_guards():
    with pytest.raises(DomainError):
        shooting1d(ONE, (0.0, 1.0))
    with pytest.raises(DomainError):
        shooting1d(ONE, (2.0, 1.0))
    with pytest.raises(IllegalSpecError):
        shooting1d((center(0.0, from_bound_state(-1.0)),), (0.5, 1.5))


# ------------------------------------------------------------ transmission


def test_transmission_lattice_vs_continuum():
    t_lat, r_lat = lattice1d_transmission(-2.0, 1.0, Lattice1D(10.0, 4001))
    assert t_lat == pytest.approx(0.5, abs=1e-5)  # measured deficit h^2/16
    assert t_lat + r_lat == 1.0


def test_transmission_error_halves_quadratically():
    e_coarse = abs(lattice1d_transmission(-2.0, 1.0, Lattice1D(10.0, 2001))[0] - 0.5)
    e_fine = abs(lattice1d_transmission(-2.0, 1.0, Lattice1D(10.0, 4001))[0] - 0.5)
    assert e_coarse / e_fine == pytest.approx(4.0, abs=0.3)


def test_transmission_free_lattice_is_exact():
    assert lattice1d_transmission(0.0, 1.0, Lattice1D(10.0, 2001)) == (1.0, 0.0)


def test_transmission_guards():
    with pytest.raises(DispersionError):
        lattice1d_transmission(-2.0, 2.0, Lattice1D(10.0, 201))
    with pytest.raises(DomainError):
        lattice1d_transmission(-2.0, 0.0, Lattice1D(10.0, 2001))


# -------------------------------------------------------------- square well


def test_well_depth_satisfies_matching():
    r0 = 0.1
    v0 = shrinking_well_depth(-1.0, r0)
    q = math.sqrt(v0 - 1.0)
    assert q / math.tan(q * r0) == pytest.approx(-1.0, abs=1e-8)


def test_well_depth_approaches_contact_limit():
    quarter_pi_sq = (math.pi / 2.0) ** 2
    gaps = [
        shrinking_well_depth(-1.0, r0) * r0 * r0 - quarter_pi_sq
        for r0 in (0.1, 0.05, 0.025, 0.01)
    ]
    assert all(g > 0.0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # leading correction is 2 kappa_B r0
    assert gaps[-1] == pytest.approx(0.02, rel=0.05)


def test_well_depth_shallow_binding():
    v0 = shrinking_well_depth(-1e-8, 0.1)
    assert v0 * (2.0 * 0.1 / math.pi) ** 2 == pytest.approx(1.0, abs=1e-4)


def test_well_depth_guards():
    with pytest.raises(DomainError):
        shrinking_well_depth(1.0, 0.1)
    with pytest.raises(DomainError):
        shrinking_well_depth(-1.0, 0.0)
    with pytest.raises(DomainError):
        shrinking_well_depth(-1.0, 1.5)  # outside 0 < r0 < 1/kappa_B
    with pytest.raises(DomainError):
        SquareWell3D(0.1, -5.0)


def test_well_tail_is_the_contact_shape():
    """Outside the core the finite well and the contact potential agree.

    Their radial functions must be strictly proportional beyond r0 (same
    kappa_B fixes the same tail), while inside the core they must differ:
    that is exactly the sense in which the contact potential is the
    r0 -> 0 limit of the well.
    """
    r0 = 0.1
    well = SquareWell3D(r0, shrinking_well_depth(-1.0, r0))
    state = bound_states(3, [center((0, 0, 0), from_bound_state(-1.0))])[0]
    ratios = [
        square_well_radial(well, -1.0, r) / residue_wavefunction(state, (r, 0.0, 0.0))
        for r in (0.3, 0.5, 1.0, 2.0)
    ]
    assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-10)
    inside = square_well_radial(well, -1.0, 0.05) / residue_wavefunction(
        state, (0.05, 0.0, 0.0)
    )
    assert abs(inside / ratios[0] - 1.0) > 0.1


def test_well_radial_guards():
    well = SquareWell3D(0.1, 100.0)
    with pytest.raises(DomainError):
        square_well_radial(well, 1.0, 0.5)
    with pytest.raises(DomainError):
        square_well_radial(well, -1.0, 0.0)
