"""The CLI contract under generated input.

Every `friedman`, `trivial`, `rgflow`, `g0` and `scatter` call, over finite
floats from +-1e-320 to +-1e300 and malformed cutoff lists and grids, ends
with exit 0, 2 or 3;
a failure writes exactly one strict-JSON line to stderr and nothing to
stdout; no exception and no warning escapes ``main``.  Examples are derandomized so the
suite stays deterministic.
"""

import contextlib
import io
import json
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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


def _assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a shown warning would land on stderr
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    assert code in (0, 2, 3), argv
    assert [str(w.message) for w in caught] == [], argv
    if code == 0:
        assert err.getvalue() == ""
        _strict_json(out.getvalue())
    else:
        assert out.getvalue() == ""
        text = err.getvalue()
        assert text.count("\n") == 1 and text.endswith("\n"), argv
        assert set(_strict_json(text)) == {"error", "message", "details"}
    return code, out.getvalue()


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
]


@pytest.mark.parametrize("argv,want", EXTREME_ARGVS, ids=[" ".join(a) for a, _ in EXTREME_ARGVS])
def test_extreme_argvs_keep_the_cli_contract(argv, want):
    code, out = _assert_contract(argv)
    assert code == want
    if argv[:3] == ("scatter", "--dim", "1"):
        assert _strict_json(out)["rows"] == [[1e-300, 0.8, 1.0 - 0.8]]
