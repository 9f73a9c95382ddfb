"""Schur functions on the disk and the parameter sequence a_n = f_n(0).

Pipeline: trigonometric moments feed the Herglotz integral

    F(z) = 1 + 2 sum_{k>=1} c_k z^k,      f(z) = (F(z) - 1) / (z (F(z) + 1)),

and the Schur algorithm peels one contractive iterate per step,

    f_{n+1}(z) = (1/z) (f_n(z) - a_n) / (1 - conj(a_n) f_n(z)),  a_n = f_n(0),

carried here both on truncated Taylor series (the parameter-extraction
route) and pointwise (the identity-verification route).  The same a_n drive
the orthogonal-polynomial recursion elsewhere; the equality of the two
extraction routes is a tested invariant, not an assumption.

Precision policy
----------------
One series-cascade step amplifies coefficient error by roughly
(1 + |a_n|) / (1 - |a_n|), so slowly-decaying parameter sequences overwhelm
double precision after a few dozen steps.  The extraction first runs in
doubles while accumulating the decimal-digit loss estimate; when the
estimate crosses a safety margin the cascade is redone in mpmath with
working precision sized to the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (
    BadNormalization,
    ContractivityLoss,
    DegenerateDenominator,
    DivisionBlowup,
    IdentityCheckFailed,
    NearZeroArgument,
    OutOfRange,
    ParameterEscape,
)
from .measure import CircleMeasure, _check_interior, moment

# Modulus at which a parameter is declared escaped (degenerate measure).
ESCAPE_THRESHOLD = 1.0 - 1e-12

# Extra moment orders requested beyond the parameter count: the cascade
# consumes one order of truncation per step and the guard keeps the tail
# honest.
SERIES_GUARD = 8

# Pointwise iterates divide by z; below this the series route must be used.
Z_MIN = 1e-3

# Accumulated decimal-digit loss beyond which the double-precision cascade
# is rerun in mpmath.
_SAFE_DIGIT_LOSS = 4.0


# -----------------------------------------------------------------------------
# Series carrier
# -----------------------------------------------------------------------------
@dataclass(frozen=True)
class TaylorSeries:
    """Truncated power series; index = power."""

    coeffs: np.ndarray

    def __post_init__(self):
        # Extended-precision coefficients are kept as they are: the mpmath
        # escalation of the cascade reads them exactly.
        c = np.asarray(self.coeffs)
        if not np.issubdtype(c.dtype, np.complexfloating):
            c = c.astype(complex)
        if c.ndim != 1 or len(c) == 0:
            raise OutOfRange("TaylorSeries needs a nonempty 1-d coefficient array")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __call__(self, z: complex) -> complex:
        return complex(npp.polyval(complex(z), self.coeffs))


@dataclass(frozen=True)
class SchurParameters:
    """The contractive parameter sequence a_0, a_1, ... with |a_n| < 1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 1:
            raise OutOfRange("parameter values must form a 1-d sequence")
        if len(v) and np.abs(v).max() >= ESCAPE_THRESHOLD:
            worst = int(np.abs(v).argmax())
            raise ParameterEscape(
                f"|a_{worst}| = {abs(v[worst]):.15g} at the escape threshold; "
                "measure is finitely supported or numerically degenerate"
            )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def rho(self) -> np.ndarray:
        """Complementary moduli sqrt(1 - |a_n|^2), all in (0, 1]."""
        return np.sqrt(1.0 - np.abs(self.values) ** 2)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> complex:
        return complex(self.values[n])

    def truncated(self, n: int) -> "SchurParameters":
        return SchurParameters(self.values[:n])


def series_div(num: np.ndarray, den: np.ndarray, n_out: int | None = None) -> np.ndarray:
    """Leading coefficients of num/den by the triangular recursion.

    Worked in extended precision: the quotient feeds the parameter
    cascade, whose own error control assumes its input is accurate to
    the last double-precision digit.  With this and its input
    (``caratheodory_series``) in double, geronimus(0.6) fails
    geronimus_consistency at 2.2e-8 (bound 1e-8).
    """
    num = np.asarray(num, dtype=np.clongdouble)
    den = np.asarray(den, dtype=np.clongdouble)
    if abs(den[0]) < 1e-12:
        raise DivisionBlowup(f"denominator constant term {den[0]!r} too small")
    if n_out is None:
        n_out = min(len(num), len(den))
    q = np.zeros(n_out, dtype=np.clongdouble)
    for k in range(n_out):
        acc = num[k] if k < len(num) else 0.0
        j_max = min(k, len(den) - 1)
        if j_max >= 1:
            acc = acc - np.dot(q[k - j_max:k], den[j_max:0:-1])
        q[k] = acc / den[0]
    return q


# -----------------------------------------------------------------------------
# Measure -> Caratheodory -> Schur
# -----------------------------------------------------------------------------
def caratheodory_series(moments: np.ndarray) -> TaylorSeries:
    """Herglotz-integral Taylor coefficients (1, 2c_1, 2c_2, ...)."""
    # extended: this feeds series_div, whose docstring has the measurement
    c = np.asarray(moments, dtype=np.clongdouble)
    if abs(c[0] - 1.0) > 1e-10:
        raise BadNormalization(f"c_0 = {complex(c[0])!r}, moments must be normalized")
    out = 2.0 * c
    out[0] = 1.0
    return TaylorSeries(out)


def schur_series(F: TaylorSeries) -> TaylorSeries:
    """Schur function series f from z f = (F - 1)/(F + 1); order drops by 1."""
    if abs(F.coeffs[0] - 1.0) > 1e-10:
        raise BadNormalization(f"F_0 = {F.coeffs[0]!r}, expected 1")
    num = F.coeffs.copy()
    num[0] = 0.0
    den = F.coeffs.copy()
    den[0] = den[0] + 1.0
    g = series_div(num, den, len(F.coeffs))
    return TaylorSeries(g[1:])


def caratheodory_eval(mu: CircleMeasure, z: complex) -> complex:
    """Herglotz integral of mu at an interior point, by quadrature.

    Accurate pointwise companion to the truncated series: no truncation
    tail to manage at |z| close to 1.
    """
    z = _check_interior(z)
    xi = mu.boundary_points
    value = complex(np.mean(mu.weight * (xi + z) / (xi - z)))
    for angle, mass in mu.atoms:
        p = np.exp(1j * angle)
        value += mass * (p + z) / (p - z)
    return value


def schur_eval(mu: CircleMeasure, z: complex) -> complex:
    """Schur function of mu at an interior point, by quadrature."""
    z = complex(z)
    if abs(z) < 1e-12:
        return moment(mu, 1)
    F = caratheodory_eval(mu, z)
    if abs(F + 1.0) < 1e-12:
        raise DivisionBlowup("Herglotz value at -1; measure degenerate at z")
    return (F - 1.0) / (z * (F + 1.0))


# -----------------------------------------------------------------------------
# Series cascade (parameter extraction)
# -----------------------------------------------------------------------------
def _cascade_double(coeffs: np.ndarray, n_max: int):
    """Double-precision cascade; returns (params, digit_loss, escape_step).

    An extended input is rounded to complex128, which moved no verdict;
    the mpmath escalation reads it unrounded.
    """
    f = np.array(coeffs, dtype=complex)
    out = np.zeros(n_max, dtype=complex)
    loss = 0.0
    for step in range(n_max):
        a = complex(f[0])
        mag = abs(a)
        if mag >= ESCAPE_THRESHOLD:
            return out, loss, step
        loss += math.log10((1.0 + mag) / (1.0 - mag))
        out[step] = a
        m = len(f)
        den = -np.conj(f[0]) * f
        den[0] += 1.0
        q = np.zeros(m, dtype=complex)
        for k in range(1, m):
            q[k] = (f[k] - np.dot(q[1:k], den[k - 1:0:-1])) / den[0]
        f = q[1:]
    return out, loss, None


def _mp_from_extended(value) -> "mp.mpc":
    """Exact conversion of a complex scalar, extended-precision ones included."""
    hi = complex(value)
    lo = complex(value - np.clongdouble(hi))
    return mp.mpc(hi) + mp.mpc(lo)


def _cascade_mp(coeffs: np.ndarray, n_max: int, dps: int):
    """Arbitrary-precision cascade; returns (params, digit_loss)."""
    with mp.workdps(dps):
        f = [_mp_from_extended(c) for c in coeffs]
        out = np.zeros(n_max, dtype=complex)
        loss = 0.0
        for step in range(n_max):
            a = f[0]
            mag = abs(a)
            if mag >= ESCAPE_THRESHOLD:
                raise ParameterEscape(
                    f"|a_{step}| = {float(mag):.15g} at the escape threshold; "
                    "measure is finitely supported or numerically degenerate"
                )
            loss += float(mp.log10((1 + mag) / (1 - mag)))
            out[step] = complex(a)
            m = len(f)
            ac = mp.conj(a)
            den = [1 - ac * f[0]] + [-ac * fk for fk in f[1:]]
            q = [mp.mpc(0)] * m
            for k in range(1, m):
                acc = f[k]
                for j in range(1, k):
                    acc -= q[j] * den[k - j]
                q[k] = acc / den[0]
            f = q[1:]
    return out, loss


def schur_parameters_from_series(f: TaylorSeries, n_max: int) -> SchurParameters:
    """Extract a_0..a_{n_max-1} by the series Schur algorithm.

    One coefficient of accuracy is consumed per step, so f must carry at
    least n_max + 1 coefficients; ask for SERIES_GUARD extra moment orders
    when building f.  Escalates to mpmath when the conditioning estimate
    says doubles are not enough.
    """
    if n_max < 0:
        raise OutOfRange("n_max must be nonnegative")
    if n_max > f.order:
        raise OutOfRange(
            f"n_max = {n_max} exceeds series order {f.order}; "
            "the cascade consumes one coefficient per step"
        )
    if n_max == 0:
        return SchurParameters(np.zeros(0, dtype=complex))

    params, loss, escape_step = _cascade_double(f.coeffs, n_max)
    if escape_step is None and loss <= _SAFE_DIGIT_LOSS:
        return SchurParameters(params)

    # Conditioning beyond doubles (or a suspect escape): redo at precision
    # sized by the digit-loss estimate, with headroom when the double pass
    # never finished.
    dps = 25 + int(math.ceil(loss))
    if escape_step is not None:
        dps += n_max
    for _ in range(2):
        params, loss_mp = _cascade_mp(f.coeffs, n_max, dps)
        needed = 21 + int(math.ceil(loss_mp))
        if dps >= needed:
            return SchurParameters(params)
        dps = needed + 10
    return SchurParameters(params)


def schur_parameters_from_measure(mu: CircleMeasure, n_max: int) -> SchurParameters:
    """Moments -> Herglotz series -> Schur cascade, with the guard applied."""
    c = np.array([moment(mu, k) for k in range(n_max + SERIES_GUARD + 1)])
    return schur_parameters_from_series(schur_series(caratheodory_series(c)), n_max)


# -----------------------------------------------------------------------------
# Pointwise iterates and the identities they satisfy
# -----------------------------------------------------------------------------
def _pointwise_iterates(
    params: SchurParameters, f_value: complex, z: complex, n: int
) -> np.ndarray:
    """f_0(z) .. f_n(z) by the pointwise recursion; f_0(z) supplied."""
    if n > len(params):
        raise OutOfRange(f"n = {n} exceeds stored parameter count {len(params)}")
    z = complex(z)
    if abs(z) < Z_MIN:
        raise NearZeroArgument(
            f"|z| = {abs(z):.3g} below {Z_MIN:g}; pointwise recursion divides by z"
        )
    out = np.zeros(n + 1, dtype=complex)
    f = complex(f_value)
    for k in range(n + 1):
        if abs(f) >= 1.0 + 1e-10:
            raise ContractivityLoss(
                f"|f_{k}(z)| = {abs(f):.15g} > 1 at z = {z!r}"
            )
        out[k] = f
        if k < n:
            a = params[k]
            f = (f - a) / (z * (1.0 - np.conj(a) * f))
    return out


def schur_iterate_eval(
    params: SchurParameters, f_value: complex, z: complex, n: int
) -> complex:
    """f_n(z) from f(z) by n pointwise steps of the recursion."""
    return complex(_pointwise_iterates(params, f_value, z, n)[n])


def iterate_noise_horizon(z: complex, budget: float = 1e-10) -> int:
    """Largest safe pointwise iterate count at z.

    Each step divides by z, so an evaluation error of about 1e-15 in f(z)
    grows like |z|^{-n}; the returned n keeps it within ``budget``.
    """
    r = abs(complex(z))
    if r >= 0.95:
        return 10_000
    return max(int(math.log(budget / 1e-15) / math.log(1.0 / r)), 1)


def szego_formula_residual(mu: CircleMeasure, params: SchurParameters, n: int) -> float:
    """|mean(log w) - sum_{k<n} log(1 - |a_k|^2)|.

    Vanishes exactly for weights with finitely many nonzero parameters once
    n passes them; decreases toward 0 along n for square-summable tails.
    """
    mu.require_szego()
    if n > len(params):
        raise OutOfRange(f"n = {n} exceeds stored parameter count {len(params)}")
    lhs = float(np.mean(np.log(mu.weight)))
    rhs = float(np.sum(np.log1p(-np.abs(params.values[:n]) ** 2)))
    return abs(lhs - rhs)


def entropy_product(
    params: SchurParameters, z: complex, f_value: complex, n: int
) -> float:
    """Partial product form of the entropy:

        log prod_{k<n} (1 - |z f_k(z)|^2) / (1 - |f_k(z)|^2).

    Every factor is >= 1 because |z| < 1.  At z = 0 the iterate values
    collapse to the parameters themselves and the product needs no
    pointwise recursion.
    """
    z = complex(z)
    if abs(z) < 1e-12:
        if n > len(params):
            raise OutOfRange(f"n = {n} exceeds stored parameter count {len(params)}")
        return float(-np.sum(np.log1p(-np.abs(params.values[:n]) ** 2)))
    iterates = _pointwise_iterates(params, f_value, z, max(n - 1, 0))[:n]
    num = 1.0 - np.abs(z * iterates) ** 2
    den = 1.0 - np.abs(iterates) ** 2
    factors = num / den
    if factors.min() < 1.0 - 1e-12:
        k = int(factors.argmin())
        raise IdentityCheckFailed(
            f"product factor {factors[k]:.15g} < 1 at step {k}, z = {z!r}"
        )
    return float(np.sum(np.log(factors)))


def schur_sum_bound(
    params: SchurParameters,
    z: complex,
    f_value: complex,
    n: int,
    entropy_value: float | None = None,
) -> tuple[float, float]:
    """Partial sum (1-|z|^2) sum_{k<n} |f_k|^2/(1-|f_k|^2) vs exp(entropy)-1.

    The right side exponentiates ``entropy_value`` when the caller supplies
    one (e.g. the quadrature entropy of the measure, robust at any depth);
    otherwise it falls back to the product form over the full stored
    parameter range.  Either way the caller can assert lhs <= rhs for every
    partial n within the iterate noise horizon (pointwise iteration
    amplifies evaluation noise by 1/|z| per step).
    """
    z = complex(z)
    if abs(z) < 1e-12:
        if n > len(params):
            raise OutOfRange(f"n = {n} exceeds stored parameter count {len(params)}")
        mags = np.abs(params.values[:n]) ** 2
        lhs = float(np.sum(mags / (1.0 - mags)))
    else:
        iterates = _pointwise_iterates(params, f_value, z, max(n - 1, 0))[:n]
        mags = np.abs(iterates) ** 2
        lhs = float((1.0 - abs(z) ** 2) * np.sum(mags / (1.0 - mags)))
    if entropy_value is None:
        entropy_value = entropy_product(params, z, f_value, len(params))
    return lhs, math.expm1(entropy_value)


def khrushchev_rhs(
    params: SchurParameters, z: complex, f_value: complex, n: int
) -> float:
    """(1 - |z b_n f_n|^2)/|1 - z b_n f_n|^2 with b_n = phi_n/phi_n*.

    Equals the Poisson average of |phi_n*|^2 against the measure; the
    quadrature of that average is the oracle this is checked against.
    """
    z = complex(z)
    if abs(z) >= 1.0 - 1e-12:
        raise OutOfRange(f"|z| = {abs(z):.12g} must be interior")
    if abs(z) < 1e-12:
        return 1.0
    from .opuc import eval_pair

    pair = eval_pair(params, z, n)
    f_n = schur_iterate_eval(params, f_value, z, n)
    t = z * (pair.phi / pair.phi_star) * f_n
    if abs(1.0 - t) < 1e-12:
        raise DegenerateDenominator(f"1 - z b_n f_n = {1.0 - t!r} at z = {z!r}")
    return float((1.0 - abs(t) ** 2) / abs(1.0 - t) ** 2)
