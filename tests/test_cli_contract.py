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
import os
import tempfile
import warnings
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from deltagreen import cli  # noqa: E402
from deltagreen.cli import main  # noqa: E402

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


# finite argvs at the edge of double precision, with the exit code each must give
EXTREME_ARGVS = [
    (("scatter", "--dim", "1", "--lam", "-1e-300", "--k", "1e-300"), 0),  # k^2 underflows
    (("scatter", "--dim", "3", "--eb", "-1e-320", "--k", "1e-300"), 3),  # |f|^2 overflows
    (("g0", "--dim", "1", "--energy", "1e300", "--retarded", "--r", "1e300"), 3),  # phase k r
    (("g0", "--dim", "2", "--energy", "1e300", "--retarded", "--r", "1e300"), 3),
    (("g0", "--dim", "2", "--energy", "1e300", "--retarded", "--r", "1e10"), 0),
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
    # a state far below the default window's first bottom, -16
    (("bound", "--dim", "3", "--center", "0,0,0:eb=-1", "--center", "0.01,0,0:eb=-1"), 0),
    # the complex-step dM/dE takes K0 of a complex argument ~1e300: 0, not NaN
    (("bound", "--dim", "2", "--center", "0,0:eb=-1", "--center", "1e300,0:eb=-1"), 0),
    # D = -inf (a 2D E_B of -0.0) or 1/lambda = inf at every E: the center
    # decouples, and the other binds alone
    (("bound", "--dim", "2", "--center", "0,0:lambdaR=-1e-300,mu=1", "--center", "1,0:eb=-1"), 0),
    (("bound", "--dim", "1", "--center", "0:lambda=-1e-320", "--center", "1:eb=-1"), 0),
    (("green", "--dim", "3", "--energy", "1e300", "--retarded", "--center", "0,0,0:eb=-1",
      "--x", "1e300,0,0", "--y", "0,1,0"), 3),
    # an infinite 1/lambda decouples its center: G is the other center's alone
    (("green", "--dim", "1", "--energy", "-2", "--center", "0:lambda=-1e-320", "--center",
      "1:eb=-1", "--x", "0.1", "--y", "0.5"), 0),
    # a NaN kernel entry in M(E) (a phase k r past double precision) is no pole;
    # det M of it printed a RuntimeWarning
    (("green", "--dim", "2", "--energy", "1e17", "--retarded", "--center", "0,0:eb=-1",
      "--center", "1.7,1e300:eb=-1", "--x", "0.1,0", "--y", "0.5,0.5"), 3),
]


# the states the default window must find in the argvs above
BOUND_ENERGIES = {
    ("bound", "--dim", "1", "--center", "0:lambda=-2", "--center", "1e300:lambda=-2"): [-1.0, -1.0],
    ("bound", "--dim", "3", "--center", "0,0,0:eb=-1", "--center", "0.01,0,0:eb=-1"): [-3289.386074],
    ("bound", "--dim", "2", "--center", "0,0:eb=-1", "--center", "1e300,0:eb=-1"): [-1.0, -1.0],
    ("bound", "--dim", "2", "--center", "0,0:lambdaR=-1e-300,mu=1", "--center", "1,0:eb=-1"): [-1.0],
    ("bound", "--dim", "1", "--center", "0:lambda=-1e-320", "--center", "1:eb=-1"): [-1.0],
}


@pytest.mark.parametrize("argv,want", EXTREME_ARGVS, ids=[" ".join(a) for a, _ in EXTREME_ARGVS])
def test_extreme_argvs_keep_the_cli_contract(argv, want):
    code, out = _assert_contract(argv)
    assert code == want
    if argv[:3] == ("green", "--dim", "2"):
        assert _strict_json(out)["error"] == "ComputationError"  # not AtPole
    if argv[:3] == ("scatter", "--dim", "1"):
        assert _strict_json(out)["rows"] == [[1e-300, 0.8, 1.0 - 0.8]]
    if argv[:3] == ("green", "--dim", "1"):
        assert _strict_json(out)["rows"] == [[0.1, -0.3186693415242748, 0.0]]
    if argv[-1] == "scan" and want == 0:
        assert _strict_json(out)["rows"] == [[0, -1.0, 1.0]]
    if argv in BOUND_ENERGIES:
        energies = [row[1] for row in _strict_json(out)["rows"]]
        assert energies == pytest.approx(BOUND_ENERGIES[argv], rel=1e-9)


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


@pytest.mark.parametrize("dim, spec", [("3", "0,0,0:lambdaR=0"), ("1", "0:lambda=0")])
def test_zero_coupling_is_invalid_input(dim, spec):
    # lambda = 0 is no interaction at all: exit 2, as any other invalid input
    assert _error(("bound", "--dim", dim, "--center", spec)) == 2


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
