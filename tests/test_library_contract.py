"""The library's own contract, beside the CLI's.

* One floating-point policy: a public numerical function gives the same bits
  whatever the caller's numpy error state, warns about nothing, and leaves
  that state as it found it.
* Number arguments: every public function that takes a number returns a
  value or raises one typed :class:`DeltaGreenError` for any argument,
  never a bare Python error or a warning.  So does every function that
  takes a center list, a coupling or a bound state, for any value there.
  The properties are derandomized so the suite stays deterministic.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltagreen import (
    DeltaGreenError,
    DomainError,
    IllegalSpecError,
    amplitude3d,
    amplitude_denominator,
    bare_1d,
    bare_from_renormalized,
    bound_states,
    bubble_regularized,
    center,
    cross_section_total,
    friedman_report,
    from_bound_state,
    g0_retarded,
    green,
    m_matrix,
    optical_theorem_residual,
    renormalized_2d,
    renormalized_3d,
    renormalized_denominator,
    residue_wavefunction,
    rg_shift,
    scattered_wave,
    transmission1d,
    transmutation_energy,
)
from deltagreen import bessel, greenfn

# two 3D E_B = -1 centers 800 apart: exp(-sqrt(2) 800) underflows at E = -2
_PAIR_3D = [center((0.0, 0.0, 0.0), from_bound_state(-1.0)),
            center((800.0, 0.0, 0.0), from_bound_state(-1.0))]
_LONE_2D = [center((0.0, 0.0), from_bound_state(-1.0))]
_STATE_2D = bound_states(2, _LONE_2D)[0]

# each underflows or overflows inside: exp(-x) past ~745, the series lane
# of K0 dropped at 1e300 and 1e308, x^2 in the J0/Y0 tail
_POLICY_CALLS = {
    "m_matrix": lambda: m_matrix(3, -2.0, _PAIR_3D).entries,
    "green_3d": lambda: green(3, -2.0, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), _PAIR_3D).value,
    "green_2d": lambda: green(2, -2.0, (1e300, 0.0), (0.0, 1.0), _LONE_2D).value,
    "bound_states": lambda: [(s.energy, s.residue_vector) for s in bound_states(3, _PAIR_3D, method="scan")],
    "residue_wavefunction": lambda: [residue_wavefunction(_STATE_2D, (1e300, 0.0)),
                                     residue_wavefunction(_STATE_2D, (1.0, 0.0))],
    "g0_kernel": lambda: [greenfn.g0_kernel(3, -2.0, [1.0, 800.0]),
                          greenfn.g0_kernel(2, -2.0, [1.0, 1e300])],
    "k0": lambda: [bessel.k0(x) for x in ([1.0, 800.0], [1.0, 1e308], 800.0, 1e308)],
    "k0_complex": lambda: bessel.k0(np.array([1.0, 800.0, 1e308]) * (1.0 + 1e-9j)),
    "hankel1_0": lambda: [bessel.hankel1_0(x) for x in ([1.0, 800.0], [1.0, 1e308], 1e308)],
}


def _bits(value):
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("name", sorted(_POLICY_CALLS))
def test_results_do_not_depend_on_the_callers_numpy_error_state(name):
    call = _POLICY_CALLS[name]
    want = _bits(call())  # numpy's defaults, every warning an error
    old = np.seterr(all="raise")
    try:
        got = _bits(call())
        after = np.geterr()
    finally:
        np.seterr(**old)
    assert after == {"divide": "raise", "over": "raise", "under": "raise", "invalid": "raise"}
    assert got == want


_SPEC_3D = renormalized_3d(1.0)
_SPEC_2D = renormalized_2d(-1.0, 1.0)
_PAIR_1D = [center(-1.0, bare_1d(-2.0)), center(1.0, bare_1d(-2.0))]

# (function, its valid keyword arguments, the number arguments to replace;
# "a[i]" replaces element i of the sequence a)
_NUMBER_CALLS = [
    (rg_shift, dict(lambda_r=2.0, mu=1.0, mu_prime=2.0), ("lambda_r", "mu", "mu_prime")),
    (bubble_regularized, dict(dim=1, K=1.0, cutoff=10.0), ("K", "cutoff")),
    (bubble_regularized, dict(dim=2, K=1.0, cutoff=10.0), ("K", "cutoff")),
    (bubble_regularized, dict(dim=4, K=1.0, cutoff=10.0), ("K", "cutoff")),
    (bare_from_renormalized, dict(dim=2, spec=_SPEC_2D, cutoff=10.0), ("cutoff",)),
    (bare_from_renormalized, dict(dim=3, spec=_SPEC_3D, cutoff=10.0), ("cutoff",)),
    (friedman_report, dict(K=1.0, cutoffs=[10.0, 100.0]), ("K", "cutoffs", "cutoffs[0]", "cutoffs[1]")),
    (transmission1d, dict(k=1.0, lam=-2.0), ("k", "lam")),
    (amplitude3d, dict(k=1.0, e_b=-1.0), ("k", "e_b")),
    (amplitude_denominator, dict(k=1.0, e_b=-1.0), ("k", "e_b")),
    (cross_section_total, dict(k=1.0, e_b=-1.0), ("k", "e_b")),
    (optical_theorem_residual, dict(k=1.0, e_b=-1.0), ("k", "e_b")),
    (g0_retarded, dict(dim=3, k=1.0, x=(0.0, 0.0, 1.0), y=(0.0, 0.0, 0.0)), ("k",)),
    (g0_retarded, dict(dim=2, k=1.0, x=(0.0, 1.0), y=(0.0, 0.0)), ("k",)),
    (scattered_wave, dict(k=1.0, spec=_SPEC_3D, x=(0.0, 0.0, 1.0)), ("k", "x")),
    (bound_states, dict(dim=1, centers=_PAIR_1D, search=(-4.0, -0.01), tol=1e-12, grid_points=400),
     ("search", "tol", "search[0]", "search[1]", "grid_points")),
]

_HOSTILE = st.one_of(
    st.sampled_from(["x", "2", "", None, [], [1.0], [1.0, 2.0], (1.0, "x"), True, False,
                     np.float64(2.0), np.float32(-1.5), np.int64(3), np.bool_(True),
                     np.complex128(1.0 + 1.0j), 1j, 2.0 + 0.0j, np.array([1.0]),
                     math.nan, math.inf, -math.inf, 10**400, -(10**400), 0, 0.0, -0.0,
                     -1.0, 5e-324, -5e-324, 1e-200, 1e200, 1e308, -1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
)


@settings(derandomize=True, max_examples=800, deadline=None, database=None)
@given(call=st.sampled_from(_NUMBER_CALLS), data=st.data())
def test_number_arguments_return_or_raise_one_typed_error(call, data):
    func, kwargs, names = call
    name = data.draw(st.sampled_from(names), label="argument")
    value = data.draw(_HOSTILE, label="value")
    kwargs = dict(kwargs)
    if name.endswith("]"):
        seq = list(kwargs[name[:-3]])
        seq[int(name[-2])] = value
        kwargs[name[:-3]] = type(kwargs[name[:-3]])(seq)
    else:
        kwargs[name] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            func(**kwargs)
        except DeltaGreenError:
            pass


@pytest.mark.parametrize("func, args", [
    (rg_shift, ("x", 1.0, 2.0)),
    (rg_shift, (True, 1.0, 2.0)),
    (rg_shift, (1.0, math.inf, 1.0)),
    (rg_shift, (1.0, 1e-100, 1e100)),
    (transmission1d, (1.0, None)),
    (amplitude3d, ("2", -1.0)),
    (scattered_wave, (1.0, _SPEC_3D, 1.5)),
    (lambda tol: bound_states(1, _PAIR_1D, tol=tol), ("x",)),
    (lambda search: bound_states(1, _PAIR_1D, search=search), (-1.0,)),
], ids=["rg_string", "rg_bool", "rg_scale_inf", "rg_ratio_overflow", "lam_none",
        "k_string", "point_number", "tol_string", "search_number"])
def test_bad_number_arguments_are_typed_errors(func, args):
    with pytest.raises(DeltaGreenError):
        func(*args)


# (function, its valid keyword arguments, the argument that takes no number)
_VALUE_CALLS = [
    (green, dict(dim=1, energy=-1.0, x=0.5, y=0.2, centers=_PAIR_1D), "centers"),
    (m_matrix, dict(dim=1, energy=-1.0, centers=_PAIR_1D), "centers"),
    (bound_states, dict(dim=1, centers=_PAIR_1D), "centers"),
    (renormalized_denominator, dict(dim=3, energy=-1.0, spec=_SPEC_3D), "spec"),
    (bare_from_renormalized, dict(dim=3, spec=_SPEC_3D, cutoff=10.0), "spec"),
    (bare_from_renormalized, dict(dim=2, spec=_SPEC_2D, cutoff=10.0), "spec"),
    (transmutation_energy, dict(spec=_SPEC_2D), "spec"),
    (scattered_wave, dict(k=1.0, spec=_SPEC_3D, x=(0.0, 0.0, 1.0)), "spec"),
    (residue_wavefunction, dict(state=_STATE_2D, x=(1.0, 0.0)), "state"),
]

_NOT_VALUES = st.sampled_from([
    None, "x", "", 1.0, 0, True, [], [1.0, 2.0], ["x"], [None], (1.0, "x"), {}, {"centers": 1},
    np.array([1.0, 2.0]), _PAIR_1D[0], [_PAIR_1D[0], None], _SPEC_2D, _SPEC_3D, _STATE_2D,
    [_SPEC_3D], [_STATE_2D], bare_1d(-2.0), from_bound_state(-1.0),
])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(call=st.sampled_from(_VALUE_CALLS), value=_NOT_VALUES)
def test_center_spec_and_state_arguments_return_or_raise_one_typed_error(call, value):
    func, kwargs, name = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            func(**{**kwargs, name: value})
        except DeltaGreenError:
            pass


_LONE = center(-1.0, bare_1d(-2.0))


@pytest.mark.parametrize("call, error, details", [
    (lambda: green(1, -1.0, 0.5, 0.2, _LONE), IllegalSpecError, {"field": "centers", "type": "DeltaCenter"}),
    (lambda: green(1, -1.0, 0.5, 0.2, None), IllegalSpecError, {"field": "centers", "type": "NoneType"}),
    (lambda: m_matrix(1, -1.0, _LONE), IllegalSpecError, {"field": "centers", "type": "DeltaCenter"}),
    (lambda: bound_states(1, None), IllegalSpecError, {"field": "centers", "type": "NoneType"}),
    (lambda: transmutation_energy(None), IllegalSpecError, {"field": "spec", "type": "NoneType"}),
    (lambda: renormalized_denominator(3, -1.0, "x"), IllegalSpecError, {"field": "spec", "type": "str"}),
    (lambda: bare_from_renormalized(3, _PAIR_1D, 10.0), IllegalSpecError, {"field": "spec", "type": "list"}),
    (lambda: scattered_wave(1.0, None, (0.0, 0.0, 1.0)), IllegalSpecError, {"field": "spec", "type": "NoneType"}),
    (lambda: residue_wavefunction(_SPEC_3D, 0.0), IllegalSpecError, {"field": "state", "type": "CouplingSpec"}),
    (lambda: bound_states(1, _PAIR_1D, grid_points="x"), IllegalSpecError, {"field": "grid_points", "type": "str"}),
    (lambda: bound_states(1, _PAIR_1D, grid_points=True), IllegalSpecError, {"field": "grid_points", "type": "bool"}),
    (lambda: bound_states(1, _PAIR_1D, grid_points=2.5), IllegalSpecError, {"grid_points": 2.5}),
    (lambda: bound_states(1, _PAIR_1D, grid_points=1e200), DomainError, {"grid_points": 1e200}),
    (lambda: bubble_regularized(2, 1.0, 0.0), DomainError, {"lambda_cap": 0.0}),
    (lambda: rg_shift(-3.0, 1.0, math.inf), DomainError, {"mu_prime": math.inf}),
    (lambda: rg_shift(-3.0, -1.0, 1.0), DomainError, {"mu": -1.0}),
    (lambda: friedman_report(1.0, 10.0), IllegalSpecError, {"field": "cutoffs", "type": "float"}),
], ids=["green_lone_center", "green_none", "m_matrix_lone_center", "bound_none", "transmutation_none",
        "denominator_str", "bare_list", "scattered_none", "residue_spec", "grid_str", "grid_bool",
        "grid_fraction", "grid_huge", "cutoff_zero", "rg_scale_inf", "rg_scale_negative", "cutoffs_number"])
def test_bad_arguments_name_themselves(call, error, details):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and info.value.details == details


def test_plain_number_cutoffs_return_values():
    assert bubble_regularized(2, 1.0, 10.0) == math.log1p(100.0) / (4.0 * math.pi)
    assert bare_from_renormalized(3, renormalized_3d(2.0), 10.0) < 0.0
    assert friedman_report(1.0, [10.0])[0].lambda_cap == 10.0
