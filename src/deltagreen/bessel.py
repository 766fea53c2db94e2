"""Bessel functions needed by the closed-form Green's functions.

Self-contained double-precision implementations for the arguments the library
actually meets.  Every function takes a number or an array of arguments and
evaluates the whole array at once; a number in gives a number out, an array
in gives an array of the same shape:

* ``k0`` -- modified Bessel function K0.  An ascending series for |z| <= 2
  and a frozen Chebyshev table for the scaled tail sqrt(z)*exp(z)*K0(z)
  beyond serve real arguments and complex ones (Re z > 0) with |z| <= 2 or
  within 1e-8 of the real axis; other complex arguments take Steed's
  continued fraction CF2 up to |z| = 1e9 and the asymptotic series beyond.
  No external special-function library is called.
* ``hankel1_0`` -- the outgoing-wave Hankel function J0 + i Y0 for real
  arguments, from the ordinary Bessel functions of order zero: ascending
  series on (0, 5], Chebyshev phase/amplitude tables beyond.  The retarded
  two-dimensional Green's function uses it, so the retarded path never
  leaves this module.

Each series is summed to a fixed number of terms, enough for every argument
of its interval, and the Chebyshev tables are converted once, at import, to
monomial coefficients.  A series or a table is then one matrix of powers of
its variable (each pass doubles the powers known, ``BLOCK`` arguments at a
time so memory stays bounded) times one coefficient matrix: a handful of
numpy operations per call whatever the number of arguments.  The product
is summed in one order for every argument, so a value does not depend on the
other arguments of the call.  K0 on real and near-axis arguments is one
stacked table (its series rows, zero-padded, over its tail row): a call with
arguments on both sides of |z| = 2 evaluates it in one pass, each argument
picking its variable, then its result, and the zeros change no sum; a call
with every argument on one side takes that side's rows and functions alone,
and skips the other lane.  J0/Y0 and off-axis complex K0 keep ``_split``,
one branch per argument and a merge.

The Chebyshev tables were generated offline by projecting the scaled
functions onto Chebyshev polynomials at 50-digit precision and truncating at
1e-18.  Measured accuracy against high-precision quadrature: K0 relative
error <= 5e-14 for real z in [1e-6, 700]; J0/Y0 error <= 2e-12 relative to
the envelope sqrt(2/(pi x)) for x <= 2e4 (phase rounding grows ~ x*eps
beyond that).

The test suite checks K0 against adaptive quadrature of the integral
representation int_0^inf exp(-z cosh t) dt, which this module deliberately
never uses.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, quiet

EULER_GAMMA = 0.5772156649015328606065120900824024

#: Arguments evaluated per block: bounds the (arguments x terms) matrix of
#: powers behind every series and table evaluation.
BLOCK = 2048

_SQRT_HALF = math.sqrt(0.5)
_TWO_OVER_PI = 2.0 / math.pi

# Chebyshev coefficients of sqrt(z)*exp(z)*K0(z) in u = 4/z - 1, z in [2, inf).
_K0_TAIL = (
    2.4403030820659555,
    -0.0314481013119645,
    0.0015698838857300533,
    -0.00012849549581627802,
    1.39498137188765e-05,
    -1.8317555227191195e-06,
    2.766813639445015e-07,
    -4.660489897687948e-08,
    8.574034017414225e-09,
    -1.6975345093890614e-09,
    3.5773972814003283e-10,
    -7.957489244477396e-11,
    1.8559491149549264e-11,
    -4.514597883374519e-12,
    1.1403405882073441e-12,
    -2.9800969231481784e-13,
    8.032890775068373e-14,
    -2.2275133267462946e-14,
    6.3400764762765995e-15,
    -1.848593377920796e-15,
    5.512055999401639e-16,
    -1.6782311257483392e-16,
    5.210391777482758e-17,
    -1.6475805935875518e-17,
    5.3004337613219474e-18,
    -1.7331711759236404e-18,
)

# Chebyshev coefficients of P0 (amplitude) in u = 50/x**2 - 1, x in [5, inf):
# J0 = sqrt(2/(pi x)) * (P0 cos th - Q0 sin th), th = x - pi/4.
_P0_TAIL = (
    1.9973046797553908,
    -0.00132937162125028,
    1.761305551290559e-05,
    -6.319367118733069e-07,
    3.948825587093808e-08,
    -3.5409678948019087e-09,
    4.103246366872386e-10,
    -5.765747662655223e-11,
    9.423105578391987e-12,
    -1.7401405706283885e-12,
    3.555775005241178e-13,
    -7.914641501338109e-14,
    1.895945636296169e-14,
    -4.8414830191754275e-15,
    1.3078555195896025e-15,
    -3.7140508214026094e-16,
    1.1030231778501779e-16,
    -3.410936210072424e-17,
    1.0942187861147697e-17,
    -3.629905656010205e-18,
    1.2418028523142547e-18,
)

# Chebyshev coefficients of x*Q0 in the same variable.
_Q0_TAIL = (
    -0.24729405164334986,
    0.0013190194049922607,
    -3.218799121266175e-05,
    1.6237093205642789e-06,
    -1.2743289742032805e-07,
    1.3513032763134409e-08,
    -1.785075905119705e-09,
    2.79085713479036e-10,
    -4.988908027652833e-11,
    9.950713667806645e-12,
    -2.175120604300883e-12,
    5.140127162427595e-13,
    -1.2993242656058971e-13,
    3.483763577688579e-14,
    -9.840057572535959e-15,
    2.9115274918439508e-15,
    -8.982151171001847e-16,
    2.877768905957047e-16,
    -9.542904999656658e-17,
    3.265816169891936e-17,
    -1.1505181284883133e-17,
    4.163203232541081e-18,
    -1.5443669917335595e-18,
)


def _series_table(terms: int, sign: float) -> np.ndarray:
    """Rows: sum_m (sign t)^m / (m!)^2 and sum_m H_m (sign t)^m / (m!)^2."""
    out = np.empty((2, terms))
    term = 1.0
    hm = 0.0
    for m in range(terms):
        if m:
            term *= sign / (m * m)
            hm += 1.0 / m
        out[:, m] = term, term * hm
    return out


def _chebyshev_basis(n: int) -> np.ndarray:
    """Row k: the monomial coefficients of T_k, from T_k = 2u T_{k-1} - T_{k-2}."""
    basis = np.zeros((n, n))
    basis[0, 0] = 1.0
    basis[1, 1] = 1.0
    for k in range(2, n):
        basis[k, 1:] = 2.0 * basis[k - 1, :-1]
        basis[k] -= basis[k - 2]
    return basis


def _monomial_table(*tables) -> np.ndarray:
    """Chebyshev tables (Clenshaw convention, c0 halved) as monomial rows."""
    out = np.zeros((len(tables), max(len(t) for t in tables)))
    for row, table in enumerate(tables):
        cheb = np.array(table)
        cheb[0] *= 0.5
        out[row, : len(table)] = cheb @ _chebyshev_basis(len(table))
    return out


# 16 terms reach (t^15 / 15!^2) < 1e-24 for |t| = |z|^2/4 <= 1; 21 terms
# reach 1e-21 for t = x^2/4 <= 6.25
_J0Y0_SERIES = _series_table(21, -1.0)
_PQ_TAIL_POLY = _monomial_table(_P0_TAIL, _Q0_TAIL)
_K0_TABLE = np.zeros((3, len(_K0_TAIL)))  # K0's rows I0, sum H_m t^m/(m!)^2, scaled tail
_K0_TABLE[:2, :16], _K0_TABLE[2] = _series_table(16, 1.0), _monomial_table(_K0_TAIL)[0]
_K0_SERIES, _K0_TAIL_ROW = _K0_TABLE[:2, :16], _K0_TABLE[2:]  # the sides, unpadded


def _polyval(t: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Each row of ``coeffs`` as a polynomial in t, at each t: (rows, t.size)."""
    if t.size > BLOCK:
        return np.concatenate(
            [_polyval(t[i : i + BLOCK], coeffs) for i in range(0, t.size, BLOCK)], axis=1
        )
    if t.size == 1:
        # einsum sums a single column with a dot-product loop, in another
        # order than the columns of a longer array: evaluate t twice, keep one
        return _polyval(np.repeat(t, 2), coeffs)[:, :1]
    terms = coeffs.shape[1]
    powers = np.empty((terms, t.size), dtype=t.dtype)
    powers[0] = 1.0
    powers[1] = t
    k = 2
    while k < terms:  # t^k .. t^(k+j-1) from t^0 .. t^(j-1), doubling each pass
        j = min(k, terms - k)
        np.multiply(powers[:j], powers[k - 1] * t, out=powers[k : k + j])
        k += j
    # numpy's own loops: a BLAS product's summation order changes with n
    return np.einsum("ik,kn->in", coeffs, powers)


def _split(x: np.ndarray, low: np.ndarray, below, above) -> np.ndarray:
    """below(x[low]) and above(x[~low]), merged back in argument order.

    ``below`` and ``above`` return either one value per argument or a matrix
    with one column per argument.
    """
    if low.all():
        return below(x)
    if not low.any():
        return above(x)
    lo = below(x[low])
    hi = above(x[~low])
    out = np.empty(lo.shape[:-1] + (x.size,), dtype=np.result_type(lo, hi))
    out[..., low] = lo
    out[..., ~low] = hi
    return out


def _result(values: np.ndarray, arg: np.ndarray):
    """Shape the flat result like the argument; a number for a 0-d argument."""
    return values.reshape(arg.shape) if arg.ndim else values[0].item()


def _k0_table(z: np.ndarray) -> np.ndarray:
    # -(log(z/2) + gamma) I0(z) + sum_{m>=1} H_m (z^2/4)^m / (m!)^2 for |z| <= 2, the scaled
    # tail beyond (exp(-z) underflows past ~745).  A call on one side takes that side's rows
    # alone; a mixed call makes one pass over _K0_TABLE and drops the lane not taken
    low = np.abs(z) <= 2.0
    if (n_low := np.count_nonzero(low)) == z.size:
        i0, s = _polyval(0.25 * z * z, _K0_SERIES)
        return -(np.log(0.5 * z) + EULER_GAMMA) * i0 + s
    if not n_low:
        return _polyval(4.0 / z - 1.0, _K0_TAIL_ROW)[0] * np.exp(-z) / np.sqrt(z)
    i0, s, tail = _polyval(np.where(low, 0.25 * z * z, 4.0 / z - 1.0), _K0_TABLE)
    return np.where(low, -(np.log(0.5 * z) + EULER_GAMMA) * i0 + s, tail * np.exp(-z) / np.sqrt(z))


def _k0_steed(z: np.ndarray) -> np.ndarray:
    """exp(z) K0(z) = sqrt(pi/(2z)) / s for |z| > 2, s from Temme's CF2 by
    Steed's algorithm (Thompson and Barnett, Comput. Phys. Commun. 47 (1987)
    245; Numerical Recipes 6.7 ``bessik``).  Each argument stops when its term
    leaves s unchanged (141 steps at |z| = 2 by the imaginary axis); at one
    common count the q of a large |z| would overflow."""
    out, left = np.empty_like(z), np.arange(z.size)
    b = 2.0 * (1.0 + z)
    d = delh = 1.0 / b
    q1, q2, q = np.zeros_like(z), np.ones_like(z), np.full_like(z, 0.25)
    s, c, i = 1.0 + q * delh, 0.25, 1
    while left.size:
        i += 1
        a = -((i - 0.5) ** 2)
        c *= -a / i
        q1, q2 = q2, (q1 - b * q2) / a
        q, b = q + c * q2, b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        step = q * delh
        s = s + step
        done = ~(np.abs(step) >= 2.0**-53 * np.abs(s))  # a NaN stops too
        if done.any():
            out[left[done]] = s[done]
            left, b, d, delh, q1, q2, q, s = (x[~done] for x in (left, b, d, delh, q1, q2, q, s))
    return np.sqrt(0.5 * math.pi / z) / out


def _k0_complex(z: np.ndarray) -> np.ndarray:
    def asymptotic(w):
        # exp(z) K0(z) past |z| ~ 1e9, where three terms of the series
        # sqrt(pi/(2z)) (1 - 1/(8z) + 9/(128z^2)) are exact to double
        # precision (the next is ~0.07/z^3)
        t = 1.0 / w
        return np.sqrt(0.5 * math.pi * t) * (1.0 - 0.125 * t + 0.0703125 * t * t)

    def off_axis(w):
        # where exp(-Re z) underflows K0 is 0 (K0 ~ 1e-306 at |z| ~ 700 is not)
        def unscaled(v):
            return _split(v, np.abs(v) <= 1e9, _k0_steed, asymptotic) * np.exp(-v)

        return _split(w, np.exp(-w.real) > 0.0, unscaled, np.zeros_like)

    # the real tail table, continued, stays accurate within 1e-8 of the
    # axis, where the residues' complex step in ln kappa differentiates it
    near = (np.abs(z) <= 2.0) | (np.abs(z.imag) <= 1e-8 * z.real)
    return _split(z, near, _k0_table, off_axis)


@quiet
def k0(z):
    """Modified Bessel function of the second kind, order zero, Re z > 0.

    Elementwise over an array, in the argument's dtype: real or complex.  The
    smallest subnormal gives inf; no Green's function takes so small an argument (kappa r > ~1e-176).
    """
    arg = np.asarray(z)
    flat = arg.ravel()
    if not (flat.real > 0.0).all():
        raise DomainError("k0 requires Re z > 0", z=repr(complex(flat[~(flat.real > 0.0)][0])))
    # log(z/2) = log 0 at the smallest subnormal: K0 = inf (inf + nan i)
    return _result(_k0_table(flat) if np.isrealobj(flat) else _k0_complex(flat), arg)


def _j0y0(x: np.ndarray) -> np.ndarray:
    """Rows J0(x) and Y0(x) for x > 0."""

    def series(s):
        c = _polyval(0.25 * s * s, _J0Y0_SERIES)
        c[1] = _TWO_OVER_PI * ((np.log(0.5 * s) + EULER_GAMMA) * c[0] - c[1])
        return c

    def tail(s):
        p, q = _polyval(50.0 / (s * s) - 1.0, _PQ_TAIL_POLY)
        q /= s
        # cos/sin of (x - pi/4) without forming the shifted argument, so the
        # phase error stays at the ulp of sin/cos themselves
        cos = np.cos(s)
        sin = np.sin(s)
        cth = (cos + sin) * _SQRT_HALF
        sth = (sin - cos) * _SQRT_HALF
        amp = np.sqrt(2.0 / (math.pi * s))
        return amp * np.stack([p * cth - q * sth, p * sth + q * cth])

    return _split(x, x <= 5.0, series, tail)


@quiet
def hankel1_0(x):
    """Outgoing Hankel function H0^(1)(x) = J0(x) + i Y0(x) for real x > 0.

    Elementwise over an array.  The smallest subnormal gives 1 - inf j; no
    Green's function takes so small an argument (kappa r > ~1e-176).
    """
    arg = np.asarray(x, dtype=float)
    flat = arg.ravel()
    if not (flat > 0.0).all():
        raise DomainError("hankel1_0 requires x > 0", x=float(flat[~(flat > 0.0)][0]))
    j, y = _j0y0(flat)
    out = j.astype(complex)
    out.imag = y
    return _result(out, arg)
