"""The CLI contract under generated input.

Every `friedman`, `trivial`, `rgflow`, `g0`, `scatter`, `green` and `bound`
call, over finite floats from +-1e-320 to +-1e300, malformed cutoff lists
and grids, and malformed, duplicate, coincident and far-apart centers, ends
with exit 0, 2 or 3; a success writes strict JSON or CSV to stdout, a
failure exactly one strict-JSON line to stderr and nothing to stdout; no
exception and no warning escapes ``main``.  `verify`, with cheap stand-ins
for its oracle checks, keeps the same contract over its flags and --output
paths, and exits 4 after writing its table when a check fails.  Examples are
derandomized so the suite stays deterministic.
"""

import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
import warnings
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from deltagreen import cli  # noqa: E402
from deltagreen.cli import main  # noqa: E402
from deltagreen.errors import DeltaGreenError  # noqa: E402
from deltagreen.greenfn import ComplexEnergy, SpatialPoint, g0  # noqa: E402

POSITIVE = st.floats(min_value=1e-320, max_value=1e300)
NEGATIVE = st.floats(min_value=-1e300, max_value=-1e-320)
FLOATS = st.one_of(POSITIVE, NEGATIVE, st.just(0.0))

CUTOFFS = st.one_of(
    st.lists(POSITIVE, min_size=1, max_size=4, unique=True).map(sorted),
    st.lists(FLOATS, min_size=1, max_size=4),
).map(lambda caps: ",".join(map(repr, caps))) | st.text(
    alphabet="0123456789.,-+eE x;:", max_size=10
)


def _argvs(pos, neg):
    """Every subcommand, with ``pos`` drawn where the option must be
    positive (or the coupling binds) and ``neg`` where it must be negative."""
    pos, neg, any_ = pos.map(repr), neg.map(repr), FLOATS.map(repr)
    return st.one_of(
        st.tuples(st.just("friedman"), st.just("--k"), pos, st.just("--cutoffs"), CUTOFFS),
        st.tuples(
            st.just("trivial"), st.just("--dim"), st.sampled_from(["2", "3"]),
            st.just("--lam"), pos, st.just("--energy"), neg,
            st.just("--r"), any_, st.just("--cutoffs"), CUTOFFS,
        ),
        st.tuples(
            st.just("rgflow"), st.just("--dim"), st.just("2"),
            st.just("--lambda-r"), any_, st.just("--mu"), pos, st.just("--cutoffs"), CUTOFFS,
        ),
        st.tuples(
            st.just("rgflow"), st.just("--dim"), st.just("3"), st.just("--lambda-r"), pos,
            st.just("--cutoffs"), CUTOFFS,
        ),
        st.tuples(
            st.just("rgflow"), st.just("--dim"), st.just("3"), st.just("--eb"), neg,
            st.just("--cutoffs"), CUTOFFS,
        ),
    )


# signs that pass the options' own checks, and any sign at all
ARGVS = _argvs(POSITIVE, NEGATIVE) | _argvs(FLOATS, FLOATS)

GRID = st.tuples(FLOATS, FLOATS, st.integers(-1, 6)).map(
    lambda g: f"{g[0]!r}:{g[1]!r}:{g[2]}"
) | st.text(alphabet="0123456789.-eE:x", max_size=10)


def _flat(parts):
    return tuple(item for part in parts for item in part)


def _values(flag, floats):
    """``flag`` given one to three times, or its ``-grid`` form once."""
    repeated = st.lists(floats.map(lambda v: (flag, repr(v))), min_size=1, max_size=3)
    return repeated.map(_flat) | GRID.map(lambda g: (f"{flag}-grid", g))


def _kernel_argvs(pos, neg):
    """`g0` and `scatter` argvs, with ``pos``/``neg`` as in :func:`_argvs`."""
    any_ = FLOATS.map(repr)
    policy = st.sampled_from([(), ("--policy", "unitary"), ("--policy", "paper")])
    g0 = st.tuples(
        st.just(("g0", "--dim")), st.sampled_from([("1",), ("2",), ("3",)]),
        st.tuples(st.just("--energy"), any_),
        st.sampled_from([(), ("--retarded",)]), _values("--r", pos),
    )
    scatter_1d = st.tuples(
        st.just(("scatter", "--dim", "1", "--lam")), any_.map(lambda v: (v,)),
        _values("--k", pos), policy,
    )
    scatter_3d = st.tuples(
        st.just(("scatter", "--dim")), st.sampled_from([("2",), ("3",)]),
        st.tuples(st.just("--eb"), neg.map(repr)) | st.tuples(st.just("--lambda-r"), any_),
        _values("--k", pos), policy,
    )
    return st.one_of(g0, scatter_1d, scatter_3d).map(_flat)


KERNEL_ARGVS = _kernel_argvs(POSITIVE, NEGATIVE) | _kernel_argvs(FLOATS, FLOATS)


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _assert_table(text, fmt):
    """``text`` is strict JSON, or CSV with every row as wide as its header."""
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(text))
        assert all(len(row) == len(header) for row in rows), text
    else:
        _strict_json(text)


def _assert_contract(argv, codes=(0, 2, 3)):
    """Run ``main``; check the exit code, the streams and that nothing warned.

    A table exit (0, or 4 for `verify`) writes a table and nothing to stderr;
    any other writes nothing to stdout and one strict-JSON line to stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a shown warning would land on stderr
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    assert code in codes, argv
    assert [str(w.message) for w in caught] == [], argv
    if code in (0, 4):
        assert err.getvalue() == ""
        if "--output" not in argv:
            _assert_table(out.getvalue(), "csv" if "csv" in argv else "json")
    else:
        assert out.getvalue() == ""
        text = err.getvalue()
        assert text.count("\n") == 1 and text.endswith("\n"), argv
        assert set(_strict_json(text)) == {"error", "message", "details"}
    return code, (out if code in (0, 4) else err).getvalue()  # the stream that was written


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(argv=ARGVS)
def test_renorm_subcommands_keep_the_cli_contract(argv):
    _assert_contract(argv)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(argv=KERNEL_ARGVS)
def test_g0_and_scatter_keep_the_cli_contract(argv):
    _assert_contract(argv)


# argvs that read an E_B beyond the doubles: the default window's scales, a
# lone center's own state (in a given window too), a 3D amplitude or flow
E_B_OVERFLOWS = [
    ("bound", "--dim", "1", "--center", "0:lambda=-1e300"),
    ("bound", "--dim", "3", "--center", "0,0,0:lambdaR=2.8048664346235065e-283"),
    ("bound", "--dim", "1", "--center", "0:lambda=-1e300", "--center", "1:lambda=-2"),
    ("scatter", "--dim", "3", "--lambda-r", "1e-300", "--k", "1"),
    ("rgflow", "--dim", "3", "--lambda-r", "1e-300"),
    ("bound", "--dim", "1", "--center", "0:lambda=-1e300", "--emin", "-10", "--emax", "-0.1",
     "--method", "auto"),
    ("bound", "--dim", "1", "--center", "0:lambda=-1e300", "--emin", "-10", "--emax", "-0.1",
     "--method", "scan"),
]

# finite argvs at the edge of double precision, with the exit code each must give
EXTREME_ARGVS = [
    (("scatter", "--dim", "1", "--lam", "-1e-300", "--k", "1e-300"), 0),  # k^2 underflows
    (("scatter", "--dim", "3", "--eb", "-1e-320", "--k", "1e-300"), 3),  # |f|^2 overflows
    (("g0", "--dim", "1", "--energy", "1e300", "--retarded", "--r", "1e300"), 3),  # phase k r
    (("g0", "--dim", "2", "--energy", "1e300", "--retarded", "--r", "1e300"), 3),
    (("g0", "--dim", "2", "--energy", "1e300", "--retarded", "--r", "1e10"), 0),
    (("g0", "--dim", "2", "--energy", "0", "--retarded", "--r", "1"), 3),  # K0(0) = inf
    # the default scan window stops at -2^-1022: beside a strong neighbour a
    # center of -E_B = 1e-320 adds no state, and the pair's one is found; one
    # or two such centers alone bind one below the floor, and the scan says so
    (("bound", "--dim", "1", "--center", "0:eb=-1e-320", "--center", "1:eb=-1", "--method", "scan"), 0),
    (("bound", "--dim", "1", "--center", "0:eb=-1e-320", "--method", "scan"), 3),
    (("bound", "--dim", "1", "--center", "0:eb=-1e-320", "--center", "1:eb=-1e-320",
      "--method", "scan"), 3),
    # squared center and point distances overflow; det M = D^2 touches zero at
    # the pair's two states without changing sign
    (("bound", "--dim", "1", "--center", "0:lambda=-2", "--center", "1e300:lambda=-2"), 0),
    # tol kappa / 2 underflows to 0: the roots are refined to resolution, at
    # E ~ -1 and at E ~ -1e-12; a tol whose width and multiplet threshold
    # overflow merges the pair in one step
    (("bound", "--dim", "1", "--center", "-1:lambda=-2", "--center", "1:lambda=-2",
      "--tol", "5e-324"), 0),
    (("bound", "--dim", "3", "--center", "0,0,0:eb=-1e-12", "--center", "1e7,0,0:eb=-2e-12",
      "--tol", "5e-324"), 0),
    (("bound", "--dim", "1", "--center", "0:eb=-1e10", "--center", "1:eb=-2e10", "--tol", "1e300"),
     0),
    (("bound", "--dim", "1", "--center", "0:eb=-1e10", "--center", "1:eb=-2e10", "--tol", "1e308"),
     0),
    # the default window's bottom stops at the largest finite -kappa^2, and a
    # multiplet whose sum would overflow is averaged by halves; in 1D dM/dE =
    # 1/(4 kappa^3) underflows to 0, but the residues are normalized by
    # 2 kappa^2 dM/dE = 1/(2 kappa), which does not
    (("bound", "--dim", "1", "--center", "0:eb=-1e300"), 0),
    (("bound", "--dim", "1", "--center", "0:eb=-1e250", "--center", "1:eb=-1e250"), 0),
    (("bound", "--dim", "1", "--center", "0:eb=-1.7e308", "--center", "1:eb=-1.7e308"), 0),
    (("bound", "--dim", "3", "--center", "0,0,0:eb=-1.7e308", "--center", "1,0,0:eb=-1.7e308"), 0),
    # a state far below the default window's first bottom, -16
    (("bound", "--dim", "3", "--center", "0,0,0:eb=-1", "--center", "0.01,0,0:eb=-1"), 0),
    # the complex-step dM/dE takes K0 of a complex argument ~1e300: 0, not NaN
    (("bound", "--dim", "2", "--center", "0,0:eb=-1", "--center", "1e300,0:eb=-1"), 0),
    # ln kappa_B = -2 pi 1e300 keeps the 2D center live, with D ~ -1e300 in
    # the window, and its own state, at E_B = -0.0, beyond the doubles, as
    # where 2 ln kappa_B overflows to -inf: the other binds alone
    (("bound", "--dim", "2", "--center", "0,0:lambdaR=-1e-300,mu=1", "--center", "1,0:eb=-1"), 0),
    (("bound", "--dim", "2", "--center", "0,0:lambdaR=-4.4e-308,mu=1", "--center", "1,0:eb=-1"), 0),
    # 1/lambda, 2 pi/lambda_R or 1/lambda_R = inf is lambda = 0: invalid input
    (("bound", "--dim", "1", "--center", "0:lambda=-1e-320", "--center", "1:eb=-1"), 2),
    (("green", "--dim", "1", "--energy", "-2", "--center", "0:lambda=-1e-320", "--center",
      "1:eb=-1", "--x", "0.1", "--y", "0.5"), 2),
    (("bound", "--dim", "2", "--center", "0,0:lambdaR=1e-320,mu=1", "--center", "1,0:eb=-1"), 2),
    (("bound", "--dim", "3", "--center", "0,0,0:lambdaR=1e-320"), 2),
    *[(argv, 3) for argv in E_B_OVERFLOWS],
    # the second row's subtraction scale mu' = 2 mu overflows: rg_shift refuses it
    (("rgflow", "--dim", "2", "--lambda-r", "-0.005", "--mu", "1.5e308", "--cutoffs", "1e300,1e301"), 3),
    # a given window over several centers reads their finite constants, no E_B
    (("bound", "--dim", "1", "--center", "0:lambda=-1e300", "--center", "1:lambda=-2",
      "--emin", "-10", "--emax", "-0.1"), 0),
    (("bound", "--dim", "2", "--center", "0,0:lambdaR=1e-3,mu=1", "--center", "1,0:eb=-1",
      "--emin", "-10", "--emax", "-0.1"), 0),
    (("green", "--dim", "3", "--energy", "1e300", "--retarded", "--center", "0,0,0:eb=-1",
      "--x", "1e300,0,0", "--y", "0,1,0"), 3),
    # |x - y| = 2e308 is past the doubles, though each point is within them
    (("green", "--dim", "1", "--energy", "-2", "--center", "0:eb=-1", "--x", "1e308", "--y=-1e308"), 3),
    # a NaN kernel entry in M(E) (a phase k r past double precision) is no pole;
    # det M of it printed a RuntimeWarning
    (("green", "--dim", "2", "--energy", "1e17", "--retarded", "--center", "0,0:eb=-1",
      "--center", "1.7,1e300:eb=-1", "--x", "0.1,0", "--y", "0.5,0.5"), 3),
]


# the states the argvs above must find; those in a given window, to 1e-13
# relative, agree with a shooting oracle (1D: the 1e300 center forces psi(0)
# = 0, the pair's odd state) or a brentq root of det M with scipy's K0 (2D)
BOUND_ENERGIES = {
    ("bound", "--dim", "1", "--center", "0:lambda=-2", "--center", "1e300:lambda=-2"): [-1.0, -1.0],
    ("bound", "--dim", "1", "--center", "-1:lambda=-2", "--center", "1:lambda=-2", "--tol", "5e-324"):
        [-1.2295650725757956, -0.6349095705470416],
    ("bound", "--dim", "3", "--center", "0,0,0:eb=-1e-12", "--center", "1e7,0,0:eb=-2e-12",
     "--tol", "5e-324"): [-2.000000000000035e-12, -9.999999999004786e-13],
    ("bound", "--dim", "1", "--center", "0:eb=-1e10", "--center", "1:eb=-2e10", "--tol", "1e300"):
        [-15017957225.164825, -15017957225.164825],
    ("bound", "--dim", "1", "--center", "0:eb=-1e10", "--center", "1:eb=-2e10", "--tol", "1e308"):
        [-15017957225.164825, -15017957225.164825],
    ("bound", "--dim", "3", "--center", "0,0,0:eb=-1", "--center", "0.01,0,0:eb=-1"): [-3289.386074],
    ("bound", "--dim", "1", "--center", "0:eb=-1e300"): [-1e300],
    ("bound", "--dim", "1", "--center", "0:eb=-1e250", "--center", "1:eb=-1e250"): [-1e250, -1e250],
    ("bound", "--dim", "1", "--center", "0:eb=-1.7e308", "--center", "1:eb=-1.7e308"):
        [-1.7e308, -1.7e308],
    ("bound", "--dim", "3", "--center", "0,0,0:eb=-1.7e308", "--center", "1,0,0:eb=-1.7e308"):
        [-1.7e308, -1.7e308],
    ("bound", "--dim", "2", "--center", "0,0:eb=-1", "--center", "1e300,0:eb=-1"): [-1.0, -1.0],
    ("bound", "--dim", "2", "--center", "0,0:lambdaR=-1e-300,mu=1", "--center", "1,0:eb=-1"): [-1.0],
    ("bound", "--dim", "2", "--center", "0,0:lambdaR=-4.4e-308,mu=1", "--center", "1,0:eb=-1"): [-1.0],
    ("bound", "--dim", "1", "--center", "0:lambda=-1e300", "--center", "1:lambda=-2",
     "--emin", "-10", "--emax", "-0.1"): [-0.6349095705470416],
    ("bound", "--dim", "2", "--center", "0,0:lambdaR=1e-3,mu=1", "--center", "1,0:eb=-1",
     "--emin", "-10", "--emax", "-0.1"): [-0.9999435729277568],
}


@pytest.mark.parametrize("argv,want", EXTREME_ARGVS, ids=[" ".join(a) for a, _ in EXTREME_ARGVS])
def test_extreme_argvs_keep_the_cli_contract(argv, want):
    code, out = _assert_contract(argv)
    assert code == want
    if argv[:3] == ("green", "--dim", "2"):
        assert _strict_json(out)["error"] == "ComputationError"  # not AtPole
    if argv[:3] == ("scatter", "--dim", "1"):
        assert _strict_json(out)["rows"] == [[1e-300, 0.8, 1.0 - 0.8]]
    if want == 2:
        assert _strict_json(out)["error"] == "ZeroCoupling"
    if argv in E_B_OVERFLOWS:
        assert _strict_json(out)["error"] == "DomainError"
        assert _strict_json(out)["details"] == {"e_b": "-inf"}
    if argv[-1] == "scan" and want == 0:
        assert _strict_json(out)["rows"] == [[0, -1.0, 1.0]]
    if argv in BOUND_ENERGIES:
        energies = [row[1] for row in _strict_json(out)["rows"]]
        assert energies == pytest.approx(BOUND_ENERGIES[argv], rel=1e-13 if "--emin" in argv else 1e-9)


G0_RADII = st.one_of(
    st.floats(-50.0, 50.0),
    st.sampled_from([0.0, -0.0, 1e-14, 5e-324, -5e-324, 1e300, -1e300]),
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(dim=st.integers(1, 3), retarded=st.booleans(), negative=st.booleans(),
       size=st.floats(1e-6, 1e6), radii=st.lists(G0_RADII, min_size=1, max_size=6))
def test_g0_table_is_g0_row_by_row(dim, retarded, negative, size, radii):
    # one kernel call over |r| gives each row's g0(r e_1, 0) bit for bit, or
    # the error of the first row that fails
    energy = -size if negative or not retarded else size
    argv = ["g0", "--dim", str(dim), "--energy", repr(energy)] + ["--retarded"] * retarded
    code, text = _assert_contract(argv + [a for r in radii for a in ("--r", repr(r))])
    e, origin = ComplexEnergy(energy, retarded=retarded), SpatialPoint((0.0,) * dim)
    try:
        values = [g0(dim, e, SpatialPoint((r,) + (0.0,) * (dim - 1)), origin).value
                  for r in radii]
    except DeltaGreenError as exc:
        assert (code, _strict_json(text)) == (3, exc.payload())
    else:
        assert code == 0
        want = [[r, v.real, v.imag] for r, v in zip(radii, values)]
        assert repr(_strict_json(text)["rows"]) == repr(want)


# -- green and bound -----------------------------------------------------------

COORD = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, 1e300, -1e300, 1e150, 1e-320]),  # far apart, or nearly coincident
)
# a coupling variant legal in each dimension, with moderate values that bind
BINDING = {
    1: st.floats(-4.0, -0.2).map(lambda v: f"lambda={v!r}"),
    2: st.floats(-12.0, -1.0).map(lambda v: f"lambdaR={v!r},mu=1"),
    3: st.floats(1.0, 40.0).map(lambda v: f"lambdaR={v!r}"),
}
EXTREME = st.one_of(
    NEGATIVE.map(lambda v: f"eb={v!r}"),
    FLOATS.map(lambda v: f"lambda={v!r}"),
    st.tuples(FLOATS, POSITIVE).map(lambda c: f"lambdaR={c[0]!r},mu={c[1]!r}"),
    FLOATS.map(lambda v: f"lambdaR={v!r}"),
    st.text(alphabet="abelmdR=,-0123456789.", max_size=12),  # malformed
)


@st.composite
def _green_bound_case(draw):
    """A dimension, 1-6 center specs (some repeated, coincident, far apart or
    malformed), two points (some malformed, some at a center) and an energy."""
    dim = draw(st.integers(1, 3))

    def point(shift=0.0):
        # now and then one coordinate too few: a malformed point
        size = dim - 1 if dim > 1 and draw(st.integers(0, 19)) == 19 else dim
        coords = draw(st.lists(COORD, min_size=size, max_size=size))
        return ",".join(repr(c + shift if i == 0 else c) for i, c in enumerate(coords))

    coupling = st.floats(-4.0, -0.1).map(lambda v: f"eb={v!r}") | BINDING[dim]
    n = draw(st.integers(1, 6))
    # the i-th center shifted by 1.7 i along the first axis, so that few coincide
    specs = [(point(1.7 * i), draw(coupling)) for i in range(n)]
    if draw(st.integers(0, 3)) == 3:  # one extreme, illegal or malformed coupling
        specs[-1] = (specs[-1][0], draw(EXTREME))
    centers = [f"{pos}:{coupling}" for pos, coupling in specs]
    if draw(st.integers(0, 7)) == 7:
        centers.append(draw(st.sampled_from(centers)))  # a duplicate spec
    x = draw(st.sampled_from([p for p, _ in specs]) | st.builds(point))  # at a center, or not
    return str(dim), centers, x, draw(st.builds(point)), draw(st.floats(-5.0, 5.0) | FLOATS)


def _center_args(centers):
    return tuple(item for c in centers for item in ("--center", c))


BOUND_OPTIONS = st.lists(
    st.sampled_from([
        ("--method", "scan"), ("--method", "scan"), ("--method", "auto"), ("--tol", "1e-10"),
        ("--grid-points", "40"), ("--emin", "-20"), ("--emax", "-0.01"), ("--format", "csv"),
        ("--tol", "0"), ("--grid-points", "1"),  # invalid
    ]),
    max_size=3, unique=True,
).map(_flat)


def _rows(argv, out):
    if "csv" in argv:
        return [row.split(",") for row in out.splitlines()[1:]]
    return _strict_json(out)["rows"]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=_green_bound_case(), options=BOUND_OPTIONS, retarded=st.booleans())
def test_green_and_bound_keep_the_cli_contract(case, options, retarded):
    dim, centers, x, y, energy = case
    code, out = _assert_contract(("bound", "--dim", dim) + _center_args(centers) + options)
    energies = [energy]
    if code == 0:
        # just beside and on a bound-state pole: the pole test must fire cleanly
        energies += [float(row[1]) for row in _rows(options, out)[:2]]
    for e in energies:
        _assert_contract(
            ("green", "--dim", dim, "--energy", repr(e), "--x", x, "--y", y)
            + _center_args(centers)
            + (("--retarded",) if retarded else ())
        )


# -- couplings across the double range ------------------------------------------

# log-uniform magnitudes beside hypothesis' own float draws, which favour
# the ends of the range and round numbers
MAGNITUDE = POSITIVE | st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-320, 299))
# each |coupling| where its E_B or its constant leaves the doubles: 2 sqrt(max)
# and 1/max in 1D, 2 pi/max and 4 pi/max in 2D, 1/max and 4 pi/sqrt(max) in 3D
_MAX = sys.float_info.max
EDGES = {1: (2.0 * math.sqrt(_MAX), 1.0 / _MAX), 2: (2.0 * math.pi / _MAX, 4.0 * math.pi / _MAX),
         3: (1.0 / _MAX, 4.0 * math.pi / math.sqrt(_MAX))}


def _signed(magnitude):
    return st.tuples(st.booleans(), magnitude).map(lambda s: -s[1] if s[0] else s[1])


def _coupling_value(dim):
    """A signed magnitude, or one just on either side of an edge of ``dim``."""
    near = st.sampled_from([edge * side for edge in EDGES[dim] for side in (1.0 - 1e-9, 1.0 + 1e-9)])
    return _signed(MAGNITUDE | near)


COUPLINGS = {
    1: _coupling_value(1).map(lambda v: f"lambda={v!r}"),
    2: st.tuples(_coupling_value(2), MAGNITUDE).map(lambda c: f"lambdaR={c[0]!r},mu={c[1]!r}"),
    3: _coupling_value(3).map(lambda v: f"lambdaR={v!r}"),
}


@st.composite
def _double_range_case(draw):
    """A dimension, 1-4 centers of every coupling variant with magnitudes
    from 1e-320 to 1e300, spaced at a length scale from 1e-6 to 1e8, two
    points and an energy."""
    dim = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-6, 8))

    def point(shift):
        coords = draw(st.lists(st.floats(-0.4, 0.4), min_size=dim, max_size=dim))
        return ",".join(repr(scale * (c + shift * (i == 0))) for i, c in enumerate(coords))

    coupling = MAGNITUDE.map(lambda v: f"eb={-v!r}") | COUPLINGS[dim]
    centers = [f"{point(i)}:{draw(coupling)}" for i in range(draw(st.integers(1, 4)))]
    return str(dim), centers, point(0.5), point(-0.5), draw(_signed(MAGNITUDE))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(case=_double_range_case(), method=st.sampled_from(["auto", "scan"]), retarded=st.booleans())
def test_couplings_across_the_double_range_keep_the_cli_contract(case, method, retarded):
    dim, centers, x, y, energy = case
    code, out = _assert_contract(("bound", "--dim", dim, "--method", method) + _center_args(centers))
    if dim == "2" and code == 0:
        # every 2D center binds: a state lies at or below the least E_B, or
        # the default window misses it and says so
        assert _strict_json(out)["rows"]
    _assert_contract(
        ("green", "--dim", dim, "--energy", repr(energy), "--x", x, "--y", y)
        + _center_args(centers) + (("--retarded",) if retarded else ())
    )


# -- size caps and bound's own parameters ----------------------------------------

def _error(argv):
    code, _ = _assert_contract(argv)
    return code


@pytest.mark.parametrize("argv", [
    ("bound", "--dim", "1", "--center", "0:eb=-1", "--grid-points", "1"),
    ("bound", "--dim", "1", "--center", "0:eb=-1", "--tol", "0"),
    ("bound", "--dim", "1", "--center", "0:eb=-1", "--tol", "-1e-12"),
], ids=lambda argv: " ".join(argv[5:]))
def test_invalid_bound_parameters_exit_2(argv):
    assert _error(argv) == 2


@pytest.mark.parametrize("dim, spec, details", [
    ("3", "0,0,0:lambdaR=0", {"lambda_r": 0.0}), ("1", "0:lambda=0", {"lam": 0.0}),
])
def test_zero_coupling_is_invalid_input(dim, spec, details):
    # lambda = 0 is no interaction at all: exit 2, as any other invalid input
    code, err = _assert_contract(("bound", "--dim", dim, "--center", spec))
    payload = _strict_json(err)
    assert code == 2 and payload["error"] == "ZeroCoupling" and payload["details"] == details


def test_caps_refuse_one_more_before_allocating(monkeypatch):
    # np.linspace and the parsers must not run on a refused size
    monkeypatch.setattr(cli.np, "linspace", None)
    cap = cli.MAX_GRID
    assert _error(("g0", "--dim", "1", "--energy", "-1", "--r-grid", f"0.1:1:{cap + 1}")) == 2
    assert _error(("scatter", "--dim", "1", "--lam", "-2", "--k-grid", f"0.1:1:{10**11}")) == 2
    one = ("--dim", "1", "--center", "0:eb=-1")
    assert _error(("bound",) + one + ("--grid-points", str(cap + 1))) == 2
    # the cap itself passes (a single center takes the closed form: no grid)
    assert _error(("bound",) + one + ("--grid-points", str(cap))) == 0
    monkeypatch.setattr(cli, "_parse_center", None)
    many = ("--center", "0:eb=-1") * (cli.MAX_CENTERS + 1)
    assert _error(("bound", "--dim", "1") + many) == 2
    assert _error(("green", "--dim", "1", "--energy", "-2", "--x", "0", "--y", "1") + many) == 2


def test_caps_accept_their_own_value(monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID", 5)
    monkeypatch.setattr(cli, "MAX_CENTERS", 3)
    assert _error(("g0", "--dim", "1", "--energy", "-1", "--r-grid", "0.1:1:5")) == 0
    assert _error(("g0", "--dim", "1", "--energy", "-1", "--r-grid", "0.1:1:6")) == 2
    assert _error(("scatter", "--dim", "1", "--lam", "-2", "--k-grid", "0.1:1:5")) == 0
    assert _error(("scatter", "--dim", "1", "--lam", "-2", "--k-grid", "0.1:1:6")) == 2
    three = ("--center", "0:eb=-1", "--center", "2:eb=-1", "--center", "4:eb=-1")
    green = ("green", "--dim", "1", "--energy", "-2", "--x", "0.5", "--y", "1")
    assert _error(green + three) == 0
    assert _error(green + three + ("--center", "6:eb=-1")) == 2
    assert _error(("bound", "--dim", "1") + three) == 0
    assert _error(("bound", "--dim", "1") + three + ("--center", "6:eb=-1")) == 2


# -- verify ----------------------------------------------------------------------

# cheap stand-ins for the oracle checks: all pass (exit 0), one fails (exit 4),
# or one error is not a finite number (the table refuses it: exit 3)
RIGGED_CHECKS = {
    "pass": [("a", 0.0, 1e-6), ("b", 1e-9, 1e-6)],
    "fail": [("a", 0.0, 1e-6), ("b", 1.0, 1e-6)],
    "nan": [("a", float("nan"), 1e-6)],
}
OUTPUTS = ["file", "directory", "missing parent", "empty"]
UNKNOWN = [("--slow",), ("-f",), ("--fast=1",), ("--format", "xml"), ("--output",)]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    checks=st.sampled_from(sorted(RIGGED_CHECKS)),
    fast=st.booleans(),
    fmt=st.sampled_from([None, "json", "csv"]),
    output=st.sampled_from([None] + OUTPUTS),
    unknown=st.sampled_from([None] + UNKNOWN),
    order=st.randoms(use_true_random=False),
)
def test_verify_keeps_the_cli_contract(checks, fast, fmt, output, unknown, order):
    with tempfile.TemporaryDirectory() as tmp:
        path = {
            "file": os.path.join(tmp, "table.out"),
            "directory": tmp,
            "missing parent": os.path.join(tmp, "missing", "table.out"),
            "empty": "",
            None: None,
        }[output]
        options = [("--fast",)] * fast + [("--format", fmt)] * (fmt is not None)
        options += [("--output", path)] * (path is not None)
        order.shuffle(options)
        # last, so that a bare --output misses its value and takes no flag as one
        argv = ("verify",) + _flat(options + [unknown] * (unknown is not None))
        with mock.patch.object(cli, "CHECKS", {"rigged": lambda fast: RIGGED_CHECKS[checks]}):
            code, text = _assert_contract(argv, codes=(0, 2, 3, 4))
        # parsing refuses first, then the table its NaN cell, then open() the path
        if unknown is not None or output == "directory":
            assert code == 2
        elif checks == "nan":
            assert code == 3
        else:
            assert code == (2 if output in ("missing parent", "empty") else
                            {"pass": 0, "fail": 4}[checks])
        if code in (0, 4):
            if path is not None:
                assert text == ""
                with open(path, encoding="utf-8", newline="") as handle:
                    text = handle.read()
            _assert_table(text, fmt or "json")
            if fmt != "csv":
                assert _strict_json(text)["metadata"]["params"] == {"fast": fast}
