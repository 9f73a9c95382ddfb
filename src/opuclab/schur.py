"""Schur functions on the disk and the parameter sequence a_n = f_n(0).

Pipeline: trigonometric moments c_k feed the Herglotz integral

    F(z) = 1 + 2 sum_{k>=1} c_k z^k,      f(z) = (F(z) - 1) / (z (F(z) + 1)),

and the Schur algorithm peels one contractive iterate per step,

    f_{n+1}(z) = (1/z) (f_n(z) - a_n) / (1 - conj(a_n) f_n(z)),  a_n = f_n(0).

For the parameter-extraction route f is carried as a quotient u/v of
truncated Taylor series read straight off the moments, u_j = c_{j+1} and
v_j = c_j, so no series is ever divided: one step is

    a = u_0 / v_0,   v <- v - conj(a) u,   u <- (u - a v) / z,

which costs O(len(u)) (Schur's algorithm in generator form).  Step s reads
u_s and v_s last, so a_0..a_{n-1} come from c_0..c_n alone, as in
Geronimus' theorem (Simon, OPUC Part 1), and the route asks ``moments``
for no more.  The identity-verification route runs the same recursion
pointwise.  The same a_n drive the orthogonal-polynomial recursion
elsewhere; the equality of the two extraction routes is a tested
invariant, not an assumption.

Precision policy
----------------
One series-cascade step amplifies coefficient error by roughly
(1 + |a_n|) / (1 - |a_n|), so slowly-decaying parameter sequences overwhelm
double precision after a few dozen steps.  Both O(n^2) extraction routes,
this cascade and the moment recursion of ``opuc.monic_from_moments``,
follow one rule (``_escalate``): run in double while summing the
decimal-digit loss estimate; when the sum passes ``_SAFE_DIGIT_LOSS`` or
the double pass escapes, redo the route in fixed point, in Python integers
with P fractional bits sized from the estimate.  Each route is written
once over a small arithmetic, one for its double pass and one for its
exact pass:

- the cascade's double pass, ``FloatBlock``, holds u and v as one float64
  array and makes each Schur step's shorter array in float64 multiply,
  add and subtract alone, so each product and sum rounds once, as the
  scalar formulas ar*qr - ai*qi and ar*qi + ai*qr read;
- the moment recursion's double pass, ``ComplexLists``, holds a vector as
  a list of Python complex;
- both exact passes, ``FixedLists``, hold a vector as two lists of
  integers, its real and imaginary parts.  The double inputs convert
  exactly down to 2^-P, and each result converts back to the nearest
  double.

In every double pass a parameter is one Python complex division.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from .errors import (
    ContractivityLoss,
    DivisionBlowup,
    IdentityCheckFailed,
    NearZeroArgument,
    OutOfRange,
    ParameterEscape,
)
from .measure import (
    CircleMeasure,
    _band_record,
    _interior_points,
    _one_or_many,
    _poisson_means,
    _schwarz_kernel,
    moment,
    moments,
)

# Modulus at which a parameter is declared escaped (degenerate measure).
ESCAPE_THRESHOLD = 1.0 - 1e-12

# Depth of the parameter roundtrips read from the moments, capped by the
# build depth: the ell2 build's cross-check and the schur_identities routes
# run this cascade at min(ROUTE_DEPTH, depth), so both read one set of
# parameters.
ROUTE_DEPTH = 64

# Pointwise iterates divide by z; below this the series route must be used.
Z_MIN = 1e-3

# Accumulated decimal-digit loss beyond which the cascade and the moment
# recursion are redone in fixed point (``_escalate``).
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
        if not np.isfinite(v).all():
            raise OutOfRange("parameter values must be finite")
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

    def require_depth(self, n: int) -> None:
        """Raise OutOfRange unless a_0..a_{n-1} are stored."""
        if n > len(self):
            raise OutOfRange(f"n = {n} exceeds stored parameter count {len(self)}")


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


class ComplexLists:
    """The moment recursion's double arithmetic: a vector is a list of Python
    complex, and each operation applies the scalar one element by element,
    in order, so its bits are the scalar's.  ``shift`` is z x;
    ``sub_mul(x, a, y)`` is x - a y."""

    vector = staticmethod(lambda values: np.asarray(values, dtype=complex).tolist())
    cut = staticmethod(lambda x, start, stop=None: x[start:stop])
    shift = staticmethod(lambda x: [0j, *x])
    extend = staticmethod(lambda x: [*x, 0j])
    conj = staticmethod(complex.conjugate)
    conj_all = staticmethod(lambda x: [p.conjugate() for p in x])
    dot = staticmethod(lambda x, y: sum(map(operator.mul, x, y), 0j))
    sub_mul = staticmethod(lambda x, a, y: [p - a * q for p, q in zip(x, y)])
    div = staticmethod(operator.truediv)
    value = staticmethod(complex)


def _nearest_double(num: int, den: int) -> float:
    """num / den for den > 0, correctly rounded; past the double range it
    rounds to +-inf, as a double operation would, where Python's int
    division raises OverflowError."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


class FixedLists:
    """The exact passes' arithmetic, in integer multiples of 2^-bits.

    A vector is two lists of Python integers, its real and imaginary parts,
    and a scalar two integers.  Each product floors to 2^-bits, as
    (x*y - u*v) >> bits per part, and sums are exact.  ``value`` is the
    complex double nearest a scalar: int / int rounds correctly, and a part
    past the double range becomes +-inf, so an exact pass escapes where
    its double pass did.
    """

    def __init__(self, dps: int):
        self.bits = fixed_bits(dps)

    def vector(self, values):
        # complex doubles, exact down to 2^-bits and floored below; each part
        # is m / 2^e, so no double times 2^bits, which can overflow, is formed
        parts = [], []
        for value in np.asarray(values, dtype=complex).tolist():
            for out, part in zip(parts, (value.real, value.imag)):
                num, den = part.as_integer_ratio()
                out.append((num << self.bits) // den)
        return parts

    head = staticmethod(lambda x: (x[0][0], x[1][0]))
    cut = staticmethod(lambda x, start, stop=None: (x[0][start:stop], x[1][start:stop]))
    shift = staticmethod(lambda x: ([0, *x[0]], [0, *x[1]]))
    extend = staticmethod(lambda x: ([*x[0], 0], [*x[1], 0]))
    conj = staticmethod(lambda a: (a[0], -a[1]))
    conj_all = staticmethod(lambda x: (x[0], [-p for p in x[1]]))

    def dot(self, x, y):
        (xr, xi), (yr, yi), bits = x, y, self.bits
        return (
            sum([(p * r - q * s) >> bits for p, q, r, s in zip(xr, xi, yr, yi)]),
            sum([(p * s + q * r) >> bits for p, q, r, s in zip(xr, xi, yr, yi)]),
        )

    def sub_mul(self, x, a, y):
        (xr, xi), (ar, ai), (yr, yi), bits = x, a, y, self.bits
        return (
            [p - ((ar * r - ai * s) >> bits) for p, r, s in zip(xr, yr, yi)],
            [p - ((ar * s + ai * r) >> bits) for p, r, s in zip(xi, yr, yi)],
        )

    def pair(self, u, v):
        return self.vector(u), self.vector(v)

    def parameter(self, pair):
        a = self.div(self.head(pair[0]), self.head(pair[1]))
        return a, self.value(a)

    def schur_step(self, pair, a):
        u, v = pair
        return (
            self.sub_mul(self.cut(u, 1), a, self.cut(v, 1)),
            self.sub_mul(v, self.conj(a), self.cut(u, 0, -1)),
        )

    def div(self, p, q):
        (pr, pi), (qr, qi), bits = p, q, self.bits
        size = qr * qr + qi * qi
        return (
            ((pr * qr + pi * qi) << bits) // size,
            ((pi * qr - pr * qi) << bits) // size,
        )

    def value(self, a):
        one = 1 << self.bits
        return complex(_nearest_double(a[0], one), _nearest_double(a[1], one))


class FloatBlock:
    """The series cascade's double arithmetic: u, and v reversed, as one
    float64 block z of shape (2 rows, 2 parts, m), the long axis last, so
    u_0 sits in column 0 and v_0 in column m - 1.

    ``schur_step`` returns a fresh block of width m - 1 holding
    u[1:] - a v[1:] and v[:-1] - conj(a) u[:-1] in four ufunc calls of
    float64 multiply, add and subtract.  The view y = z[::-1, :, -2::-1],
    rows swapped and columns reversed, holds v[1:] and u[:-1] reversed
    beside z[:, :, 1:], which holds u[1:] and v[:-1] reversed; y[:, ::-1]
    swaps its parts.  Each product and sum rounds once, as ar*qr - ai*qi
    and ar*qi + ai*qr (for conj(a), ar*qr + ai*qi and ar*qi - ai*qr) read,
    so no bit follows numpy's complex-multiply dispatch.  A parameter is
    one Python complex division, as in the other passes.
    """

    @staticmethod
    def pair(u, v):
        u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)[::-1]
        return np.array([[u.real, u.imag], [v.real, v.imag]])

    @staticmethod
    def parameter(z):
        a = complex(z.item(0, 0, 0), z.item(0, 1, 0)) / complex(
            z.item(1, 0, -1), z.item(1, 1, -1)
        )
        return a, a

    @staticmethod
    def schur_step(z, a):
        y = z[::-1, :, -2::-1]
        return z[:, :, 1:] - (y * a.real + y[:, ::-1] * (_CROSS_SIGNS * a.imag))


# The sign of ai in each part of a step's cross terms, y[:, ::-1] times it:
# row 0 is u's update, times a, and row 1 is v's, times conj(a).
_CROSS_SIGNS = np.array([[[-1.0], [1.0]], [[1.0], [-1.0]]])


def double_pass_stands(loss: float, finished: bool) -> bool:
    """The trust rule of the double passes: one that finished with a
    digit-loss sum within ``_SAFE_DIGIT_LOSS`` stands."""
    return finished and loss <= _SAFE_DIGIT_LOSS


def _escalate(double_result, loss: float, finished: bool, n_max: int, exact_pass):
    """The precision rule of the series cascade and the moment recursion.

    ``double_result`` and its digit-loss sum ``loss`` come from the route's
    double pass, which escaped or lost positivity unless ``finished``.  A
    pass that ``double_pass_stands`` stands.  Otherwise
    ``exact_pass(dps)`` redoes the route in fixed point and returns (result,
    its digit loss), with dps = 25 + ceil(loss), plus n_max of headroom when
    the double pass never finished.  When the exact pass's own loss leaves
    fewer than 21 spare digits, it is redone once with 10 more than that.
    """
    if double_pass_stands(loss, finished):
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
def _cascade(u, v, n_max: int, num):
    """Schur steps on f = u/v; returns (params, digit_loss, escape_step).

    Runs in the arithmetic ``num``, ``FloatBlock`` or ``FixedLists``, on
    u[:n_max] and v[:n_max] only, since a_s reads u[:s+1] and v[:s+1].
    One step takes a = u_0/v_0 (``num.parameter``, which also gives a as
    a complex double), then ``num.schur_step`` takes v <- v - conj(a) u and
    u <- (u - a v)/z, dropping the last entry of each, which no later step
    reads.  As in Python complex arithmetic, a double that overflows
    becomes inf without a warning.  A NaN parameter, which Python's complex
    division can give on entries near the double range, counts as escaped,
    so the exact pass decides.
    """
    pair = num.pair(u[:n_max], v[:n_max])
    out = np.zeros(n_max, dtype=complex)
    loss = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_max):
            a, value = num.parameter(pair)
            out[step] = value
            try:
                mag = abs(value)
            except OverflowError:  # |a| past the double range: an escape
                mag = math.inf
            if not mag < ESCAPE_THRESHOLD:
                return out, loss, step
            loss += digit_loss(mag)
            pair = num.schur_step(pair, a)
    return out, loss, None


def _cascade_mp(u, v, n_max: int, dps: int):
    """The cascade in fixed point carrying ``dps`` digits; returns (params, digit_loss).

    Keeps the name and signature that ``perfbench/layers.py`` wraps to
    read ``dps``.
    """
    params, loss, step = _cascade(u, v, n_max, FixedLists(dps))
    if step is not None:
        raise ParameterEscape(
            f"|a_{step}| = {abs(params[step]):.15g} at the escape threshold; "
            "measure is finitely supported or numerically degenerate"
        )
    return params, loss


def schur_parameters_from_series(u, v, n_max: int) -> SchurParameters:
    """Extract a_0..a_{n_max-1} from the Taylor coefficients of f = u/v.

    u and v must be finite and carry at least n_max coefficients each, the
    ones the cascade reads.  Escalates to fixed point when the conditioning estimate
    says doubles are not enough (``_escalate``).
    """
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if u.ndim != 1 or u.shape != v.shape:
        raise OutOfRange("u and v must be 1-d coefficient arrays of one length")
    if n_max < 0:
        raise OutOfRange("n_max must be nonnegative")
    if n_max > len(u):
        raise OutOfRange(
            f"n_max = {n_max} exceeds the {len(u)} coefficients given; "
            "the cascade consumes one coefficient per step"
        )
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise OutOfRange("u and v must hold finite coefficients")
    if n_max == 0:
        return SchurParameters(np.zeros(0, dtype=complex))
    if abs(v[0]) < 1e-12:
        raise DivisionBlowup(f"denominator constant term {v[0]!r} too small")

    params, loss, step = _cascade(u, v, n_max, FloatBlock)
    params = _escalate(
        params, loss, step is None, n_max, lambda dps: _cascade_mp(u, v, n_max, dps)
    )
    return SchurParameters(params)


def schur_parameters_from_measure(mu: CircleMeasure, n_max: int) -> SchurParameters:
    """Moments c_0..c_{n_max} -> f = u/v -> Schur cascade."""
    c = moments(mu, n_max)
    return schur_parameters_from_series(c[1:], c[:-1], n_max)


# -----------------------------------------------------------------------------
# Pointwise iterates and the identities they satisfy
# -----------------------------------------------------------------------------
def _pointwise_iterates(
    params: SchurParameters, f_value: complex, z: complex, n: int
) -> Iterator[complex]:
    """Yield f_0(z) .. f_n(z) by the pointwise recursion, f_0(z) supplied;
    lazily, so a prefix read never meets a later ContractivityLoss."""
    params.require_depth(n)
    z = complex(z)
    if abs(z) < Z_MIN:
        raise NearZeroArgument(
            f"|z| = {abs(z):.3g} below {Z_MIN:g}; pointwise recursion divides by z"
        )
    f = complex(f_value)
    for k in range(n + 1):
        if abs(f) >= 1.0 + 1e-10:
            raise ContractivityLoss(
                f"|f_{k}(z)| = {abs(f):.15g} > 1 at z = {z!r}"
            )
        yield f
        if k < n:
            a = params[k]
            f = (f - a) / (z * (1.0 - np.conj(a) * f))


def iterate_noise_horizon(z: complex, budget: float = 1e-10) -> int:
    """Largest safe pointwise iterate count at z.

    Each step divides by z, so an evaluation error of about 1e-15 in f(z)
    grows like |z|^{-n}; the returned n keeps it within ``budget``.
    """
    r = abs(complex(z))
    if r >= 0.95:
        return 10_000
    return max(int(math.log(budget / 1e-15) / math.log(1.0 / r)), 1)


def szego_formula_residuals(
    mu: CircleMeasure, params: SchurParameters, n_list: Sequence[int]
) -> List[float]:
    """|mean(log w) - sum_{k<n} log(1 - |a_k|^2)| at every n of a sweep.

    Vanishes exactly for weights with finitely many nonzero parameters once
    n passes them; decreases toward 0 along n for square-summable tails.
    One grid mean of log w serves every n; each n sums its own prefix.
    """
    mu.require_szego()
    params.require_depth(max(n_list))
    lhs = float(_band_record(mu, "log_weight")[1][0].real)
    terms = np.log1p(-np.abs(params.values[: max(n_list)]) ** 2)
    return [abs(lhs - float(np.sum(terms[:n]))) for n in n_list]


def entropy_products(
    params: SchurParameters, z: complex, f_value: complex, n_list: Sequence[int]
) -> List[float]:
    """Partial product form of the entropy at every n of a sweep, in order:

        log prod_{k<n} (1 - |z f_k(z)|^2) / (1 - |f_k(z)|^2).

    Every factor is >= 1 because |z| < 1.  One pointwise pass to the
    deepest n, read by prefix, so each n fails as a pass to that n alone
    would.  At z = 0 the iterate values collapse to the parameters
    themselves and the product needs no pointwise recursion.
    """
    z = complex(z)
    if abs(z) < 1e-12:
        params.require_depth(max(n_list))
        return [
            float(-np.sum(np.log1p(-np.abs(params.values[:n]) ** 2))) for n in n_list
        ]
    steps = _pointwise_iterates(params, f_value, z, max(max(n_list) - 1, 0))
    read, out = [], []
    for n in n_list:
        read += itertools.islice(steps, max(n, 1, len(read)) - len(read))
        iterates = np.array(read[:n], dtype=complex)
        factors = (1.0 - np.abs(z * iterates) ** 2) / (1.0 - np.abs(iterates) ** 2)
        if factors.min() < 1.0 - 1e-12:
            k = int(factors.argmin())
            raise IdentityCheckFailed(
                f"product factor {factors[k]:.15g} < 1 at step {k}, z = {z!r}"
            )
        out.append(float(np.sum(np.log(factors))))
    return out


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
    if abs(z) < 1e-12:  # f_k(0) = a_k, and 1 - |z|^2 rounds to 1
        params.require_depth(n)
        iterates = params.values[:n]
    else:
        iterates = list(_pointwise_iterates(params, f_value, z, max(n - 1, 0)))[:n]
    mags = np.abs(np.array(iterates, dtype=complex)) ** 2
    lhs = float((1.0 - abs(z) ** 2) * np.sum(mags / (1.0 - mags)))
    return lhs, math.expm1(entropy_value)

