"""The CLI contract under generated input for the renormalization subcommands.

Every `friedman`, `trivial` and `rgflow` call, over finite floats from
+-1e-320 to +-1e300 and malformed cutoff lists, ends with exit 0, 2 or 3;
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


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(argv=ARGVS)
def test_renorm_subcommands_keep_the_cli_contract(argv):
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
