"""Schur functions on the disk and the parameter sequence a_n = f_n(0).

Pipeline: trigonometric moments c_k feed the Herglotz integral

    F(z) = 1 + 2 sum_{k>=1} c_k z^k,      f(z) = (F(z) - 1) / (z (F(z) + 1)),

and the Schur algorithm peels one contractive iterate per step,

    f_{n+1}(z) = (1/z) (f_n(z) - a_n) / (1 - conj(a_n) f_n(z)),  a_n = f_n(0).

For the parameter-extraction route f is carried as a quotient u/v of
truncated Taylor series read straight off the moments, u_j = c_{j+1} and
v_j = c_j, so no series is ever divided: one step is

    a = u_0 / v_0,   v <- v - conj(a) u,   u <- (u - a v) / z,

which costs O(len(u)) (Schur's algorithm in generator form).  The
identity-verification route runs the same recursion pointwise.  The same
a_n drive the orthogonal-polynomial recursion elsewhere; the equality of
the two extraction routes is a tested invariant, not an assumption.

Precision policy
----------------
One series-cascade step amplifies coefficient error by roughly
(1 + |a_n|) / (1 - |a_n|), so slowly-decaying parameter sequences overwhelm
double precision after a few dozen steps.  Both O(n^2) extraction routes,
this cascade and the moment recursion of ``opuc.monic_from_moments``,
follow one rule (``_escalate``): run in double while summing the
decimal-digit loss estimate; when the sum passes ``_SAFE_DIGIT_LOSS`` or
the double pass escapes, redo the route in fixed point: ``Fixed`` numbers,
Python integers with P fractional bits sized from the estimate.  The
double inputs convert to them exactly down to 2^-P, and each result
converts back to the nearest double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractivityLoss,
    DegenerateDenominator,
    DivisionBlowup,
    IdentityCheckFailed,
    NearZeroArgument,
    OutOfRange,
    ParameterEscape,
)
from .measure import (
    CircleMeasure,
    _interior_points,
    _one_or_many,
    _poisson_means,
    _schwarz_kernel,
    moment,
    moments,
)

# Modulus at which a parameter is declared escaped (degenerate measure).
ESCAPE_THRESHOLD = 1.0 - 1e-12

# Extra moment orders requested beyond the parameter count: the cascade
# consumes one order of truncation per step and the guard keeps the tail
# honest.
SERIES_GUARD = 8

# Pointwise iterates divide by z; below this the series route must be used.
Z_MIN = 1e-3

# Accumulated decimal-digit loss beyond which a double-precision extraction
# is redone with more precision: the cascade and the moment recursion in
# fixed point (``_escalate``), the value-space recursion in extended
# precision.
_SAFE_DIGIT_LOSS = 4.0

# Digit loss beyond which a parameter-first family cannot be built from its
# parameters in double.  Measured over 60 ell2 configs (c from 0.3 to 0.99,
# p from 0.2 to 2, 4096 to 32768 nodes): every one that builds loses at most
# 2.86 digits and every one losing 3.13 or more fails its roundtrip.
BUILD_DIGIT_LOSS = 3.0


def digit_loss(mag: float) -> float:
    """Decimal digits one Schur step at |a| = mag costs: log10((1+|a|)/(1-|a|))."""
    return math.log10((1.0 + mag) / max(1.0 - mag, 1e-300))


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


# -----------------------------------------------------------------------------
# Pointwise Herglotz and Schur functions
# -----------------------------------------------------------------------------
def caratheodory_eval(mu: CircleMeasure, z) -> complex | np.ndarray:
    """Herglotz integral of mu at interior points, by quadrature.

    Accurate pointwise companion to the truncated series: no truncation
    tail to manage at |z| close to 1.  ``z`` is one interior point
    (returns a complex) or a 1-d array of them (returns an array).
    """
    zs = _interior_points(z)
    rows = [("weight", mu.atom_masses if mu.atoms else None)]
    return _one_or_many(z, _poisson_means(mu, zs, rows, _schwarz_kernel)[0])


def schur_eval(mu: CircleMeasure, z) -> complex | np.ndarray:
    """Schur function of mu at interior points, by quadrature.

    One point or a 1-d array of them, as for ``caratheodory_eval``; a
    point with |z| < 1e-12 reads f(0) = c_1 instead of dividing by z.
    """
    zs = np.array(_interior_points(z), dtype=complex)
    away = np.abs(zs) >= 1e-12
    values = np.empty(len(zs), dtype=complex)
    if not away.all():
        values[~away] = moment(mu, 1)
    F = caratheodory_eval(mu, zs[away])
    if np.any(np.abs(F + 1.0) < 1e-12):
        raise DivisionBlowup("Herglotz value at -1; measure degenerate at z")
    values[away] = (F - 1.0) / (zs[away] * (F + 1.0))
    return _one_or_many(z, values)


# -----------------------------------------------------------------------------
# Escalation of the O(n^2) extraction routes to fixed point
# -----------------------------------------------------------------------------
def fixed_bits(dps: int) -> int:
    """Fractional bits P that carry ``dps`` decimal digits, 8 of them spare."""
    return math.ceil(dps * math.log2(10.0)) + 8


class Fixed:
    """A complex number held as integer multiples of 2^-bits, re + i im.

    The arithmetic of the exact passes: +, -, * and / floor to 2^-bits,
    and ``conjugate``, ``abs`` and ``complex`` work as on a complex, so a
    recursion written for complex numbers runs on it unchanged.
    ``complex(x)`` is the complex double nearest x, since int / int rounds
    correctly however large 2^bits is.
    """

    __slots__ = ("re", "im", "bits")

    def __init__(self, re: int, im: int, bits: int):
        self.re, self.im, self.bits = re, im, bits

    @classmethod
    def of(cls, value: complex, bits: int) -> "Fixed":
        """A complex double, exact down to 2^-bits and floored below.

        ``float.as_integer_ratio`` gives each part as m / 2^e, so no double
        times 2^bits is formed: past 1023 bits that product would overflow.
        """
        value = complex(value)
        parts = []
        for part in (value.real, value.imag):
            num, den = part.as_integer_ratio()
            parts.append((num << bits) // den)
        return cls(parts[0], parts[1], bits)

    def __add__(self, other: "Fixed") -> "Fixed":
        return Fixed(self.re + other.re, self.im + other.im, self.bits)

    def __sub__(self, other: "Fixed") -> "Fixed":
        return Fixed(self.re - other.re, self.im - other.im, self.bits)

    def __mul__(self, other: "Fixed") -> "Fixed":
        re, im, bits = self.re, self.im, self.bits
        return Fixed(
            (re * other.re - im * other.im) >> bits,
            (re * other.im + im * other.re) >> bits,
            bits,
        )

    def __truediv__(self, other: "Fixed") -> "Fixed":
        re, im, bits = self.re, self.im, self.bits
        size = other.re * other.re + other.im * other.im
        return Fixed(
            ((re * other.re + im * other.im) << bits) // size,
            ((im * other.re - re * other.im) << bits) // size,
            bits,
        )

    def conjugate(self) -> "Fixed":
        return Fixed(self.re, -self.im, self.bits)

    def __complex__(self) -> complex:
        one = 1 << self.bits
        return complex(self.re / one, self.im / one)

    def __abs__(self) -> float:
        return abs(complex(self))


def _escalate(double_result, loss: float, finished: bool, n_max: int, exact_pass):
    """The precision rule of the series cascade and the moment recursion.

    ``double_result`` and its digit-loss sum ``loss`` come from the route's
    double pass, which escaped or lost positivity unless ``finished``.  A
    finished pass within ``_SAFE_DIGIT_LOSS`` stands.  Otherwise
    ``exact_pass(dps)`` redoes the route in fixed point and returns (result,
    its digit loss), with dps = 25 + ceil(loss), plus n_max of headroom when
    the double pass never finished.  When the exact pass's own loss leaves
    fewer than 21 spare digits, it is redone once with 10 more than that.
    """
    if finished and loss <= _SAFE_DIGIT_LOSS:
        return double_result
    dps = 25 + math.ceil(loss)
    if not finished:
        dps += n_max
    for _ in range(2):
        result, loss_exact = exact_pass(dps)
        needed = 21 + math.ceil(loss_exact)
        if dps >= needed:
            return result
        dps = needed + 10
    return result


# -----------------------------------------------------------------------------
# Series cascade (parameter extraction)
# -----------------------------------------------------------------------------
def _cascade(u: list, v: list, n_max: int):
    """Schur steps on f = u/v in place; returns (params, digit_loss, escape_step).

    Runs unchanged on lists of complex or of ``Fixed``.  One step takes
    a = u_0/v_0, then v <- v - conj(a) u and u <- (u - a v)/z, which is
    O(len(u)) work; both lists lose their last entry.
    """
    out = np.zeros(n_max, dtype=complex)
    loss = 0.0
    for step in range(n_max):
        a = u[0] / v[0]
        out[step] = complex(a)
        mag = abs(a)
        if mag >= ESCAPE_THRESHOLD:
            return out, loss, step
        loss += digit_loss(mag)
        ac = a.conjugate()
        for k in range(len(u) - 1):
            v[k] -= ac * u[k]
            u[k] = u[k + 1] - a * v[k + 1]
        u.pop()
        v.pop()
    return out, loss, None


def _cascade_mp(u, v, n_max: int, dps: int):
    """The cascade in fixed point carrying ``dps`` digits; returns (params, digit_loss).

    Keeps the name and signature that ``perfbench/layers.py`` wraps to
    read ``dps``.
    """
    bits = fixed_bits(dps)
    params, loss, step = _cascade(
        [Fixed.of(x, bits) for x in u], [Fixed.of(x, bits) for x in v], n_max
    )
    if step is not None:
        raise ParameterEscape(
            f"|a_{step}| = {abs(params[step]):.15g} at the escape threshold; "
            "measure is finitely supported or numerically degenerate"
        )
    return params, loss


def schur_parameters_from_series(u, v, n_max: int) -> SchurParameters:
    """Extract a_0..a_{n_max-1} from the Taylor coefficients of f = u/v.

    One coefficient of accuracy is consumed per step, so u and v must
    carry at least n_max + 1 coefficients each; ask for SERIES_GUARD extra
    moment orders when building them.  Escalates to fixed point when the
    conditioning estimate says doubles are not enough (``_escalate``).
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.ndim != 1 or u.shape != v.shape:
        raise OutOfRange("u and v must be 1-d coefficient arrays of one length")
    if n_max < 0:
        raise OutOfRange("n_max must be nonnegative")
    if n_max >= len(u):
        raise OutOfRange(
            f"n_max = {n_max} exceeds series order {len(u) - 1}; "
            "the cascade consumes one coefficient per step"
        )
    if n_max == 0:
        return SchurParameters(np.zeros(0, dtype=complex))
    if abs(v[0]) < 1e-12:
        raise DivisionBlowup(f"denominator constant term {v[0]!r} too small")

    params, loss, escape_step = _cascade(u.tolist(), v.tolist(), n_max)
    return SchurParameters(
        _escalate(
            params,
            loss,
            escape_step is None,
            n_max,
            lambda dps: _cascade_mp(u, v, n_max, dps),
        )
    )


def schur_parameters_from_measure(mu: CircleMeasure, n_max: int) -> SchurParameters:
    """Moments c_0..c_{n_max+SERIES_GUARD} -> f = u/v -> Schur cascade."""
    c = moments(mu, n_max + SERIES_GUARD)
    return schur_parameters_from_series(c[1:], c[:-1], n_max)


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
    entropy_value: float,
) -> tuple[float, float]:
    """Partial sum (1-|z|^2) sum_{k<n} |f_k|^2/(1-|f_k|^2) vs exp(entropy)-1.

    The right side exponentiates ``entropy_value``, for example the
    quadrature entropy of the measure, robust at any depth.  The caller can
    assert lhs <= rhs for every partial n within the iterate noise horizon
    (pointwise iteration amplifies evaluation noise by 1/|z| per step).
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
