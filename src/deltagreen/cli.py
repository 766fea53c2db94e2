"""Command-line surface: every computation as a deterministic result table.

Subcommands map one-to-one onto library operations; :func:`_render` writes
each result as a table in JSON or CSV with no timestamps, so identical
invocations produce identical bytes.  A command returns its exit code after
writing its table: 0, or 4 when `verify` finds any oracle disagreement.
:func:`main` maps errors to 2 (invalid input) and 3 (computational failure:
pole hit, divergence, non-convergence).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys

import click
import numpy as np

from . import __version__, oracles
from .errors import DeltaGreenError, DomainError, IllegalSpecError, SpecValidationError
from .greenfn import ComplexEnergy, SpatialPoint, g0, g0_kernel
from .pointgreen import DeltaCenter, bound_states, center, green, residue_wavefunction
from .renorm import (
    bare_1d,
    bare_from_renormalized,
    bubble_regularized,
    friedman_report,
    from_bound_state,
    renormalized_2d,
    renormalized_3d,
    renormalized_denominator,
    rg_shift,
    transmutation_energy,
)
from .rootfind import refine_root
from .scatter import (
    POLICIES,
    amplitude3d,
    cross_section_total,
    optical_theorem_residual,
    resolve_policy,
    transmission1d,
)

_G0_UNIT = {1: "L", 2: "1", 3: "1/L"}
DEFAULT_FLOW_CUTOFFS = "1e2,1e3,1e4,1e5,1e6"
DEFAULT_FRIEDMAN_CUTOFFS = "1e2,1e3,1e4,1e5"
MAX_GRID = 10**6  # grid counts and --grid-points: a 10^6-row g0 table takes ~7 s and ~0.4 GB
MAX_CENTERS = 1024  # --center options per call: M(E) of 1024 centers is 16 MB


def _render(columns, rows, metadata, fmt) -> str:
    """The table as JSON or CSV text; a non-finite cell raises :class:`DomainError`."""
    bad = ~np.isfinite(np.array(rows, dtype=float))
    if bad.any():
        i, j = np.argwhere(bad)[0]  # the first in row order
        raise DomainError("result is not a finite number", column=columns[j][0], value=rows[i][j])
    if fmt == "json":
        payload = {"metadata": metadata, "columns": [[n, u] for n, u in columns], "rows": rows}
        return json.dumps(payload, sort_keys=True, allow_nan=False, separators=(",", ":")) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([f"{name}[{unit}]" for name, unit in columns])
    writer.writerows(rows)
    return buf.getvalue()


def _table(body):
    """Make ``body`` a subcommand that prints its table, with --format/--output.

    ``body`` takes click's parsed parameters and returns ``(columns, rows)``,
    optionally followed, in order, by the parameters to record (default: the
    parsed ones), further metadata entries and an exit code (default 0).  The
    command writes the table, whose metadata records the command, the
    parameters, the package version and the branch policy, rendered by
    :func:`_render` as ``--format`` to ``--output`` (default: stdout), and
    then returns that code.
    """

    @click.option(
        "--output",
        "output",
        type=click.Path(dir_okay=False, writable=True),
        default=None,
        help="Write the table to this file instead of standard output.",
    )
    @click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "csv"]),
        default="json",
        show_default=True,
        help="Output format.",
    )
    @functools.wraps(body)
    def command(fmt, output, **params):
        result = body(**params)
        columns, rows, recorded, extra, code = result + (params, {}, 0)[len(result) - 2 :]
        metadata = {
            "command": click.get_current_context().command.name,
            "params": recorded,
            "version": __version__,
            "branch_policy": resolve_policy(recorded.get("policy")),
            **extra,
        }
        text = _render(columns, rows, metadata, fmt)
        if output is None:
            sys.stdout.write(text)
        else:
            try:
                with open(output, "w", encoding="utf-8", newline="") as handle:
                    handle.write(text)
            except OSError as exc:
                raise click.ClickException(f"cannot write {output}: {exc}") from exc
        return code

    return command


def _finite(text, flag: str | None = None) -> float:
    """A finite float, or exit 2: NaN and +-inf are invalid input everywhere."""
    where = f"{flag}: " if flag else ""
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise click.BadParameter(f"{where}{text!r} is not a number") from None
    if not math.isfinite(value):
        raise click.BadParameter(f"{where}{text!r} is not a finite number")
    return value


class _FiniteFloat(click.ParamType):
    """click's float type without NaN and +-inf; click's message names the option."""

    name = "float"

    def convert(self, value, param, ctx):
        return _finite(value)


FINITE = _FiniteFloat()


def _parse_floats(text: str, flag: str) -> list[float]:
    parts = [part.strip() for part in text.split(",")]
    out = [_finite(part, flag) for part in parts if part]
    if not out:
        raise click.BadParameter(f"{flag}: empty list")
    return out


def _parse_grid(text: str, flag: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise click.BadParameter(f"{flag}: expected start:stop:count")
    start, stop = _finite(parts[0], flag), _finite(parts[1], flag)
    try:
        count = int(parts[2])
    except ValueError:
        raise click.BadParameter(f"{flag}: expected start:stop:count with numeric fields")
    if not 2 <= count <= MAX_GRID:  # refused before the grid is allocated
        raise click.BadParameter(f"{flag}: count must be from 2 to {MAX_GRID}")
    return [float(v) for v in np.linspace(start, stop, count)]


def _parse_point(dim: int, text: str, flag: str) -> SpatialPoint:
    coords = _parse_floats(text, flag)
    if len(coords) != dim:
        raise click.BadParameter(f"{flag}: expected {dim} coordinates, got {len(coords)}")
    return SpatialPoint(tuple(coords))


def _parse_center(dim: int, text: str) -> DeltaCenter:
    """Parse pos:lambda=... | pos:lambdaR=...,mu=... | pos:eb=...

    The position may itself be comma-separated for D >= 2, e.g.
    ``0.5,0:lambdaR=-12.57,mu=1``.
    """
    if ":" not in text:
        raise click.BadParameter(f"--center: missing ':' in {text!r}")
    pos_text, coupling_text = text.split(":", 1)
    position = _parse_point(dim, pos_text, "--center position")
    keys = {}
    for item in coupling_text.split(","):
        item = item.strip()
        if "=" not in item:
            raise click.BadParameter(f"--center: expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key in keys:
            raise click.BadParameter(f"--center: duplicate key {key!r}")
        keys[key] = _finite(value, "--center")
    names = frozenset(keys)
    if names == {"lambda"}:
        spec = bare_1d(keys["lambda"])
    elif names == {"lambdaR", "mu"}:
        spec = renormalized_2d(keys["lambdaR"], keys["mu"])
    elif names == {"lambdaR"}:
        spec = renormalized_3d(keys["lambdaR"])
    elif names == {"eb"}:
        spec = from_bound_state(keys["eb"])
    else:
        raise click.BadParameter(
            "--center: coupling must be lambda=, lambdaR=[,mu=], or eb=; "
            f"got keys {sorted(names)}"
        )
    return center(position, spec)


def _parse_centers(dim: int, texts: tuple[str, ...]) -> list[DeltaCenter]:
    if len(texts) > MAX_CENTERS:  # refused before any is parsed
        raise click.BadParameter(f"--center: at most {MAX_CENTERS}, got {len(texts)}")
    return [_parse_center(dim, t) for t in texts]


def _one_of_k(ks: tuple[float, ...], grid: str | None, flag: str, grid_flag: str) -> list[float]:
    if ks and grid is not None:
        raise click.BadParameter(f"use either {flag} or {grid_flag}, not both")
    if grid is not None:
        return _parse_grid(grid, grid_flag)
    if not ks:
        raise click.BadParameter(f"{flag} or {grid_flag} is required")
    return [float(v) for v in ks]


@click.group(name="deltagreen")
@click.version_option(version=__version__, prog_name="deltagreen")
def cli():
    """Green's functions, bound states, and scattering for delta potentials.

    Units are hbar = 2m = 1 throughout: energies in 1/L^2, momenta in 1/L.
    """


@cli.command(name="g0")
@click.option("--dim", type=click.IntRange(1, 3), required=True, help="Spatial dimension.")
@click.option("--energy", type=FINITE, required=True, help="Real energy (1/L^2).")
@click.option(
    "--retarded",
    is_flag=True,
    default=False,
    help="Evaluate on the E+i0 side of the cut (required for energy >= 0).",
)
@click.option("--r", "rs", type=FINITE, multiple=True, help="Separation |x-y|; repeatable.")
@click.option("--r-grid", "r_grid", default=None, help="Separation grid start:stop:count.")
@_table
def cmd_g0(dim, energy, retarded, rs, r_grid):
    """Free-space Green's function G0(E; r) on a grid of separations."""
    radii = _one_of_k(rs, r_grid, "--r", "--r-grid")
    e = ComplexEnergy(complex(energy, 0.0), retarded=retarded)
    vals = g0_kernel(dim, e, np.abs(radii))
    if not np.isfinite(vals).all():
        raise DeltaGreenError("non-finite Green's function value", dim=dim)
    rows = list(zip(radii, vals.real.tolist(), vals.imag.tolist()))
    unit = _G0_UNIT[dim]
    params = {"dim": dim, "energy": energy, "retarded": retarded, "r": radii}
    return [("r", "L"), ("re_g0", unit), ("im_g0", unit)], rows, params


@cli.command(name="green")
@click.option("--dim", type=click.IntRange(1, 3), required=True, help="Spatial dimension.")
@click.option("--energy", type=FINITE, required=True, help="Real energy (1/L^2).")
@click.option(
    "--retarded", is_flag=True, default=False, help="Evaluate on the E+i0 side of the cut."
)
@click.option(
    "--center",
    multiple=True,
    required=True,
    help="Delta center as pos:lambda=.. | pos:lambdaR=..[,mu=..] | pos:eb=..; repeatable.",
)
@click.option("--x", multiple=True, required=True, help="Evaluation point; repeatable.")
@click.option("--y", required=True, help="Fixed second argument of G(E; x, y).")
@_table
def cmd_green(dim, energy, retarded, center, x, y):
    """Full interacting Green's function G(E; x, y) for a set of centers."""
    centers = _parse_centers(dim, center)
    y_point = _parse_point(dim, y, "--y")
    points = [_parse_point(dim, t, "--x") for t in x]
    e = ComplexEnergy(complex(energy, 0.0), retarded=retarded)
    rows = []
    for point in points:
        val = green(dim, e, point, y_point, centers).value
        rows.append(tuple(float(c) for c in point.coords) + (float(val.real), float(val.imag)))
    unit = _G0_UNIT[dim]
    coord_cols = [(f"x{i + 1}", "L") for i in range(dim)]
    return coord_cols + [("re_g", unit), ("im_g", unit)], rows


@cli.command(name="bound")
@click.option("--dim", type=click.IntRange(1, 3), required=True, help="Spatial dimension.")
@click.option("--center", multiple=True, required=True, help="Delta center spec; repeatable.")
@click.option("--emin", type=FINITE, default=None, help="Lower edge of the energy search window.")
@click.option("--emax", type=FINITE, default=None, help="Upper edge (must stay below 0).")
@click.option("--tol", type=FINITE, default=1e-12, show_default=True, help="Relative energy tolerance.")
@click.option(
    "--method",
    type=click.Choice(["auto", "scan"]),
    default="auto",
    show_default=True,
    help="auto uses closed forms for a single center; scan always searches the "
    "eigenvalue branches of M.",
)
@click.option(
    "--grid-points",
    type=click.IntRange(2, MAX_GRID),
    default=400,
    show_default=True,
    help="Scan grid size.",
)
@_table
def cmd_bound(dim, center, emin, emax, tol, method, grid_points):
    """Bound-state energies: real poles of the interacting Green's function."""
    if not tol > 0.0:
        raise click.BadParameter(f"--tol: {tol!r} is not positive")
    centers = _parse_centers(dim, center)
    if (emin is None) != (emax is None):
        raise click.BadParameter("--emin and --emax must be given together")
    search = None if emin is None else (emin, emax)
    states = bound_states(
        dim, centers, search=search, tol=tol, method=method, grid_points=grid_points
    )
    rows = [(idx, float(st.energy), float(st.kappa)) for idx, st in enumerate(states)]
    return [("index", "1"), ("energy", "1/L^2"), ("kappa", "1/L")], rows


@cli.command(name="scatter")
@click.option("--dim", type=click.IntRange(1, 3), required=True, help="1 or 3.")
@click.option("--eb", type=FINITE, default=None, help="Bound-state energy fixing the 3D coupling.")
@click.option("--lambda-r", "lambda_r", type=FINITE, default=None, help="3D renormalized coupling.")
@click.option("--lam", "lam", type=FINITE, default=None, help="1D bare coupling strength.")
@click.option("--k", "ks", type=FINITE, multiple=True, help="Momentum; repeatable.")
@click.option("--k-grid", "k_grid", default=None, help="Momentum grid start:stop:count.")
@click.option(
    "--policy",
    type=click.Choice(list(POLICIES)),
    default=None,
    help="Branch policy for the amplitude sign (default: unitary).",
)
@_table
def cmd_scatter(dim, eb, lambda_r, lam, ks, k_grid, policy):
    """Scattering observables: 3D amplitude/cross-section or 1D T and R."""
    momenta = _one_of_k(ks, k_grid, "--k", "--k-grid")
    params = {
        "dim": dim,
        "eb": eb,
        "lambda_r": lambda_r,
        "lam": lam,
        "k": momenta,
        "policy": policy,
    }
    if dim == 1:
        if lam is None or eb is not None or lambda_r is not None:
            raise click.BadParameter("dim 1 takes --lam only")
        rows = []
        for k in momenta:
            t, r = transmission1d(k, lam)
            rows.append((float(k), float(t), float(r)))
        return [("k", "1/L"), ("transmission", "1"), ("reflection", "1")], rows, params
    if dim == 2:
        raise IllegalSpecError(
            "scattering observables are implemented for dim 1 and 3 only", dim=dim
        )
    if (eb is None) == (lambda_r is None):
        raise click.BadParameter("dim 3 takes exactly one of --eb or --lambda-r")
    if eb is None:
        spec = renormalized_3d(lambda_r)
        e_b = spec.bound_state_energy(3)
        if e_b is None:
            raise IllegalSpecError(
                "nonpositive lambda_r carries no 3D bound state; give --eb instead",
                lambda_r=lambda_r,
            )
    else:
        e_b = eb
    rows = []
    for k in momenta:
        f = amplitude3d(k, e_b, policy)
        try:
            f_sq = abs(f) ** 2
        except OverflowError:  # beyond double precision: the table refuses it
            f_sq = math.inf
        sigma = cross_section_total(k, e_b)
        resid = optical_theorem_residual(k, e_b, policy)
        rows.append(
            (float(k), float(f.real), float(f.imag), float(f_sq), float(sigma), float(resid))
        )
    columns = [
        ("k", "1/L"),
        ("re_f", "L"),
        ("im_f", "L"),
        ("abs_f_sq", "L^2"),
        ("sigma", "L^2"),
        ("optical_residual", "L"),
    ]
    return columns, rows, params


@cli.command(name="rgflow")
@click.option("--dim", type=click.IntRange(2, 3), required=True, help="2 or 3.")
@click.option("--lambda-r", "lambda_r", type=FINITE, default=None, help="Renormalized coupling.")
@click.option("--mu", type=FINITE, default=None, help="Subtraction scale (2D only).")
@click.option("--eb", type=FINITE, default=None, help="Bound-state energy (3D alternative).")
@click.option(
    "--cutoffs",
    default=DEFAULT_FLOW_CUTOFFS,
    show_default=True,
    help="Comma-separated cutoff ladder.",
)
@_table
def cmd_rgflow(dim, lambda_r, mu, eb, cutoffs):
    """Running of the bare coupling with the cutoff, at fixed physics.

    In 2D each row also re-expresses the coupling at a shifted subtraction
    scale and recomputes the bound state, demonstrating scheme invariance.
    """
    lam_caps = _parse_floats(cutoffs, "--cutoffs")
    rows = []
    if dim == 2:
        if lambda_r is None or mu is None or eb is not None:
            raise click.BadParameter("dim 2 takes --lambda-r and --mu")
        spec = renormalized_2d(lambda_r, mu)
        for i, cap in enumerate(lam_caps):
            bare = bare_from_renormalized(2, spec, cap)
            mu_prime = mu * 2.0**i
            lam_r_prime = rg_shift(lambda_r, mu, mu_prime)
            e_b = transmutation_energy(renormalized_2d(lam_r_prime, mu_prime))
            rows.append((float(cap), float(bare), float(mu_prime), float(lam_r_prime), float(e_b)))
        columns = [
            ("lambda_cap", "1/L"),
            ("bare_lambda", "1"),
            ("mu_prime", "1/L"),
            ("lambda_r_prime", "1"),
            ("eb", "1/L^2"),
        ]
    else:
        if (lambda_r is None) == (eb is None) or mu is not None:
            raise click.BadParameter("dim 3 takes exactly one of --lambda-r or --eb, no --mu")
        spec = renormalized_3d(lambda_r) if eb is None else from_bound_state(eb)
        e_b = spec.bound_state_energy(3)
        if e_b is None:
            raise IllegalSpecError(
                "rgflow table needs a bound state; nonpositive lambda_r has none",
                lambda_r=lambda_r,
            )
        for cap in lam_caps:
            bare = bare_from_renormalized(3, spec, cap)
            rows.append((float(cap), float(bare), float(bare * cap), float(e_b)))
        columns = [
            ("lambda_cap", "1/L"),
            ("bare_lambda", "L"),
            ("bare_times_cutoff", "1"),
            ("eb", "1/L^2"),
        ]
    return columns, rows


@cli.command(name="friedman")
@click.option("--k", type=FINITE, required=True, help="Momentum scale sqrt(-E) (1/L).")
@click.option(
    "--cutoffs",
    default=DEFAULT_FRIEDMAN_CUTOFFS,
    show_default=True,
    help="Comma-separated ascending cutoff ladder.",
)
@_table
def cmd_friedman(k, cutoffs):
    """4D bubble decomposition: the nonremovable log that forbids D >= 4."""
    report = friedman_report(k, _parse_floats(cutoffs, "--cutoffs"))
    columns = [
        ("lambda_cap", "1/L"),
        ("total_bubble", "1/L^2"),
        ("quadratic_part", "1/L^2"),
        ("nonremovable_part", "1/L^2"),
    ]
    return columns, [tuple(float(v) for v in row) for row in report]


@cli.command(name="trivial")
@click.option("--dim", type=click.IntRange(2, 3), required=True, help="2 or 3.")
@click.option("--lam", "lam", type=FINITE, required=True, help="Fixed bare coupling, > 0.")
@click.option("--energy", type=FINITE, required=True, help="Real probe energy, < 0.")
@click.option("--r", type=FINITE, default=1.0, show_default=True, help="Probe separation.")
@click.option(
    "--cutoffs",
    default=DEFAULT_FLOW_CUTOFFS,
    show_default=True,
    help="Comma-separated cutoff ladder.",
)
@_table
def cmd_trivial(dim, lam, energy, r, cutoffs):
    """Fixed repulsive coupling: the interaction term dies with the cutoff.

    Each row evaluates the regularized denominator 1/lam + B(K, cutoff) and
    the resulting correction |G0(E; r, 0)|^2 / |denominator| to the free
    Green's function; the correction vanishing as the cutoff grows is the
    triviality statement.
    """
    if not (lam > 0.0):
        raise click.BadParameter("--lam must be positive; attraction needs renormalization")
    if not (energy < 0.0):
        raise click.BadParameter("--energy must be negative")
    lam_caps = _parse_floats(cutoffs, "--cutoffs")
    kk = math.sqrt(-energy)
    e = ComplexEnergy(complex(energy, 0.0))
    x = SpatialPoint((r,) + (0.0,) * (dim - 1))
    origin = SpatialPoint((0.0,) * dim)
    g0x = g0(dim, e, x, origin).value
    rows = []
    for cap in lam_caps:
        den = 1.0 / lam + bubble_regularized(dim, kk, cap)
        correction = abs(g0x) ** 2 / abs(den)
        rows.append((float(cap), float(den), float(correction)))
    unit = "1" if dim == 2 else "1/L"
    return [("lambda_cap", "1/L"), ("denominator", unit), ("correction_abs", unit)], rows


def _g0_quadrature_rows(fast):
    """G0 at E = -1 in D = 1..3 against the proper-time quadrature."""
    radii = (1.0,) if fast else (0.5, 1.0, 2.0)
    for dim, r in [(dim, r) for dim in (1, 2, 3) for r in radii] + [(1, 0.0)]:
        x = SpatialPoint((r,) + (0.0,) * (dim - 1))
        closed = g0(dim, ComplexEnergy(-1.0), x, SpatialPoint((0.0,) * dim)).value.real
        error = abs(closed - oracles.g0_by_quadrature(dim, -1.0, r))
        yield f"g0_quadrature_d{dim}_r{r:g}", error, 1e-8


def _lattice_spectrum_rows(fast):
    """The 1D bound state E_B = -1 against lattice eigensolves, h -> 0, and
    |p - 2| for the order p as h halves (the on-site delta is second order)."""
    single = [center(0.0, bare_1d(-2.0))]
    errs = []
    for points in (1001, 2001, 4001):
        lat = oracles.Lattice1D(half_width=20.0, points=points)
        errs.append(abs(oracles.lattice1d_spectrum(single, lat, 1)[0] - (-1.0)))
    yield "lattice_bound_state_h0.01", errs[-1], 2e-2
    yield "lattice_convergence_order", abs(math.log2(errs[-2] / errs[-1]) - 2.0), 0.1


def _shooting_rows(fast):
    """The two-delta spectrum of the branch scan against shooting."""
    pair = [center(-1.0, bare_1d(-2.0)), center(1.0, bare_1d(-2.0))]
    states = bound_states(1, pair, method="scan")
    shoot = sorted(-k * k for k in oracles.shooting1d(pair, (0.05, 3.0)))
    if len(shoot) != len(states):
        # a missed or spurious state: the count difference is >= 1, far above tol
        yield "shooting_two_delta", float(abs(len(shoot) - len(states))), 1e-6
    else:
        worst = max(abs(st.energy - e_ref) for st, e_ref in zip(states, shoot))
        yield "shooting_two_delta", worst, 1e-6


def _renormalization_rows(fast):
    """E_B's invariance under mu, the 2D cutoff limit and the 3D root."""
    base = renormalized_2d(-4.0 * math.pi, 1.0)
    e_ref = transmutation_energy(base)
    worst = 0.0
    for factor in np.geomspace(0.25, 16.0, 10):
        mu_prime = base.mu * float(factor)
        lam_prime = rg_shift(base.lambda_r, base.mu, mu_prime)
        e_shift = transmutation_energy(renormalized_2d(lam_prime, mu_prime))
        worst = max(worst, abs(e_shift - e_ref) / abs(e_ref))
    yield "transmutation_mu_invariance", worst, 1e-12

    # one e-fold below E_B the renormalized denominator is -1/(4 pi)
    kk = math.sqrt(math.e * abs(e_ref))
    target = -1.0 / (4.0 * math.pi)
    lam_caps = [1e2, 1e3, 1e4, 1e5, 1e6]
    den_errs = []
    for cap in lam_caps:
        bare = bare_from_renormalized(2, base, cap)
        den = 1.0 / bare + bubble_regularized(2, kk, cap)
        den_errs.append(abs(den - target))
    yield "denominator_limit_2d", den_errs[-1], 1e-6
    slope = -np.polyfit(np.log(lam_caps), np.log(den_errs), 1)[0]
    yield "denominator_order_2d", abs(slope - 2.0), 0.2

    spec3 = renormalized_3d(4.0 * math.pi)
    kap_root = refine_root(
        lambda kap: renormalized_denominator(3, -kap * kap, spec3).real, 0.25, 3.0, xtol=1e-14
    )
    yield "root_finder_3d", abs(kap_root * kap_root - 1.0), 1e-12


def _scattering_rows(fast):
    """The 3D optical theorem, and 1D transmission against a lattice."""
    worst = 0.0
    for k in (0.1, 0.5, 1.0, 2.0, 5.0):
        for e_b in (-0.25, -1.0, -4.0):
            worst = max(worst, abs(optical_theorem_residual(k, e_b, "unitary")))
    yield "optical_theorem_unitary", worst, 1e-14

    lat = oracles.Lattice1D(half_width=10.0, points=2001)
    t_lat, _ = oracles.lattice1d_transmission(-2.0, 1.0, lat)
    t_exact, _ = transmission1d(1.0, -2.0)
    yield "transmission_lattice", abs(t_lat - t_exact), 1e-4


def _shrinking_well_rows(fast):
    """The 3D delta at E_B = -1 as the limit of ever narrower square wells."""
    v0 = oracles.shrinking_well_depth(-1.0, 1e-3)
    yield "shrinking_well_depth", abs(v0 * 1e-6 - (math.pi / 2.0) ** 2), 5e-3


def _residue_rows(fast):
    """The 1D pole's residue factorizes into psi(x) psi(y), with norm 1."""
    single = [center(0.0, bare_1d(-2.0))]
    state = bound_states(1, single)[0]
    x_pt, y_pt = 0.77, -0.33
    psi_xy = residue_wavefunction(state, x_pt) * residue_wavefunction(state, y_pt)
    deltas = (1e-3, 1e-4)
    probes = []
    for delta in deltas:
        e_near = state.energy * (1.0 + delta)
        g_val = green(
            1, ComplexEnergy(e_near), SpatialPoint((x_pt,)), SpatialPoint((y_pt,)), single
        ).value.real
        probes.append((e_near - state.energy) * g_val)
    extrap = probes[1] + (probes[1] - probes[0]) * deltas[1] / (deltas[0] - deltas[1])
    yield "residue_factorization_1d", abs(extrap - psi_xy), 1e-6

    norm = oracles.norm_by_quadrature(lambda x: residue_wavefunction(state, x), (-60, 0, 60))
    yield "residue_normalization_1d", abs(norm - 1.0), 1e-6


#: ``verify``'s oracle checks in order: route -> generator of its (name, error,
#: tol) rows given ``--fast``.  Acceptance criteria assert these rows.
CHECKS = {
    "g0_quadrature": _g0_quadrature_rows,
    "lattice_spectrum": _lattice_spectrum_rows,
    "shooting": _shooting_rows,
    "renormalization": _renormalization_rows,
    "scattering": _scattering_rows,
    "shrinking_well": _shrinking_well_rows,
    "residue": _residue_rows,
}


@cli.command(name="verify")
@click.option(
    "--fast",
    is_flag=True,
    default=False,
    help="Trim the quadrature sweep to one radius per dimension.",
)
@_table
def cmd_verify(fast):
    """Run every oracle cross-check; exit 4 if any comparison fails."""
    checks = [check for route in CHECKS.values() for check in route(fast)]
    rows = [
        (idx, int(error <= tol), float(error), float(tol))
        for idx, (_, error, tol) in enumerate(checks, start=1)
    ]
    columns = [("check_id", "1"), ("passed", "1"), ("error", "1"), ("tol", "1")]
    names = {"check_names": [name for name, _, _ in checks]}
    return columns, rows, {"fast": fast}, names, 0 if all(row[1] for row in rows) else 4


def _strict(value):
    """Payload values as strict JSON: non-finite floats become their repr."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _emit_error(payload: dict, code: int) -> int:
    text = json.dumps(_strict(payload), sort_keys=True, allow_nan=False)
    sys.stderr.write(text + "\n")
    return code


def main(argv=None) -> int:
    try:
        # a command returns its exit code; click returns that of a ctx.exit (--version)
        return cli.main(args=argv, prog_name="deltagreen", standalone_mode=False) or 0
    except click.ClickException as exc:
        return _emit_error(
            {"error": "InvalidInput", "message": exc.format_message(), "details": {}}, 2
        )
    except SpecValidationError as exc:
        return _emit_error(exc.payload(), 2)
    except DeltaGreenError as exc:
        return _emit_error(exc.payload(), 3)
