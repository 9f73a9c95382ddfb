"""Schur functions, the parameter cascade, and the entropy product."""

import contextlib
import math
import struct
import warnings
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opuclab import schur
from opuclab.errors import (
    ContractivityLoss,
    DivisionBlowup,
    IdentityCheckFailed,
    NearZeroArgument,
    NonNormalizable,
    OutOfRange,
    ParameterEscape,
)
from opuclab.families import FAMILIES, build_family
from opuclab.measure import CircleMeasure, moments
from opuclab.schur import (
    FixedLists,
    FloatBlock,
    SchurParameters,
    _cascade,
    _cascade_mp,
    _escalate,
    entropy_products,
    fixed_bits,
    iterate_noise_horizon,
    schur_eval,
    schur_parameters_from_measure,
    schur_parameters_from_series,
    schur_sum_bound,
    szego_formula_residuals,
)

from oracles import (
    Fixed,
    cascade_fixed,
    cascade_floats,
    cascade_mp,
    exact_pass_outcome,
    khrushchev_rhs,
    schur_iterate_eval,
)


def test_schur_function_is_constant_for_bernstein_szego(bs_half):
    for z in (0.0, 0.3, -0.5j, 0.7 + 0.2j):
        assert abs(schur_eval(bs_half.measure, z) - 0.5) < 1e-10


def test_cascade_recovers_single_parameter(bs_half):
    params = schur_parameters_from_measure(bs_half.measure, 64)
    assert abs(params[0] - 0.5) < 1e-10
    assert np.max(np.abs(params.values[1:])) < 1e-8


def test_measure_mass_must_be_one():
    # the cascade reads c_0 = 1 off the measure: CircleMeasure refuses any
    # other total mass
    with pytest.raises(NonNormalizable):
        CircleMeasure(4, np.full(4, 0.9))
    with pytest.raises(NonNormalizable):
        CircleMeasure(4, np.full(4, 0.9), ((1.0, 0.2),))


def test_cascade_escape_on_unimodular_start():
    # |f(0)| = 1 means the measure degenerates to a point mass
    u = np.array([1.0 + 0j, 0.0, 0.0, 0.0])
    v = np.array([1.0 + 0j, 0.0, 0.0, 0.0])
    with pytest.raises(ParameterEscape):
        schur_parameters_from_series(u, v, 3)


@pytest.mark.parametrize(
    "u, v, n_max",
    [
        pytest.param([first, 0], [1, 0], 1, id=repr(first))
        for first in [
            complex(re, im) for re in (-1.5e308, 1.5e308) for im in (-1.5e308, 1.5e308)
        ]
        + [1.7e308]
    ]
    + [
        pytest.param(
            [1.5e308 + 1.5e308j, 0.5], [1.5e308 - 1.5e308j, 0.1], 2, id="nan-division"
        )
    ],
)
def test_cascade_escape_of_a_parameter_near_the_double_range(u, v, n_max):
    # |a_0| overflows to inf, or the division to NaN (the last case, whose
    # a_0 is i), and either is past the threshold: the escape test reads it
    # as an escape, with no OverflowError, ValueError or warning, and the
    # exact pass finds |a_0| = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterEscape, match=r"\|a_0\|"):
            schur_parameters_from_series(np.array(u), np.array(v), n_max)


@pytest.mark.parametrize("first", [1e308, -1e308 + 1e300j, 1e300 - 1e308j])
def test_exact_cascade_rounds_a_parameter_past_the_double_range(first):
    # a_0 = 2 * first has a part past the double range: the exact pass
    # rounds it to +-inf, as a double division would, and ends in the
    # escape its double pass found
    u, v = np.array([first, 0]), np.array([0.5 + 0j, 0])
    with pytest.raises(ParameterEscape, match=r"\|a_0\| = inf "):
        schur_parameters_from_series(u, v, 1)
    outcome = exact_pass_outcome(_cascade_mp, u, v, 1, 30)
    assert outcome == exact_pass_outcome(cascade_fixed, u, v, 1, 30)
    assert outcome[0] is ParameterEscape


def test_schur_parameters_refuse_escape_and_non_sequences():
    with pytest.raises(ParameterEscape, match=r"\|a_2\| = 1 "):
        SchurParameters(np.array([0.5, 0.1j, 1.0, 0.2]))
    with pytest.raises(OutOfRange, match="1-d"):
        SchurParameters(np.zeros((2, 2)))
    for value in (math.nan, complex(0.5, math.nan), math.inf):
        with pytest.raises(OutOfRange, match="finite"):
            SchurParameters(np.array([0.5, value]))


def test_series_pair_reads_the_moments():
    # moments (1/2)^k of bernstein_szego(1/2): u = c[1:], v = c[:-1] is
    # f = 1/2, whose parameters are 1/2, 0, 0, ...
    c = 0.5 ** np.arange(6)
    params = schur_parameters_from_series(c[1:], c[:-1], 4)
    assert np.max(np.abs(params.values - [0.5, 0.0, 0.0, 0.0])) < 1e-15


def test_series_pair_guards():
    c = 0.5 ** np.arange(6)
    # n_max steps read n_max coefficients of u and of v, and no more
    assert len(schur_parameters_from_series(c[1:], c[:-1], 5)) == 5
    with pytest.raises(OutOfRange):
        schur_parameters_from_series(c[1:], c[:-1], 6)  # 5 coefficients
    with pytest.raises(OutOfRange):
        schur_parameters_from_series(c[1:], c[:-2], 2)
    with pytest.raises(DivisionBlowup):
        schur_parameters_from_series(c[1:], np.zeros(5), 2)


def test_series_pair_refuses_non_finite_coefficients():
    # a NaN or an inf would pass through the double pass and then fail to
    # convert to fixed point; it is refused before either pass runs
    c = 0.5 ** np.arange(6)
    for bad in (np.nan, np.inf, -np.inf, complex(0.1, np.nan)):
        for which in (0, 1):
            pair = [c[1:].astype(complex), c[:-1].astype(complex)]
            pair[which][2] = bad
            with pytest.raises(OutOfRange):
                schur_parameters_from_series(*pair, 4)


def test_measure_route_reads_moments_to_its_depth_only(spy, geronimus6):
    # a_0..a_{d-1} need c_0..c_d alone (Geronimus' theorem), so the route
    # asks for exactly that many moments
    orders = spy(lambda mu, k_max: k_max, schur, "moments")
    for d in (1, 16, 64):
        params = schur_parameters_from_measure(geronimus6.measure, d)
        assert len(params) == d
    assert orders == [1, 16, 64]


def test_cascade_precisions_agree(bs_half):
    c = moments(bs_half.measure, 64)
    double, _, escape_step = _cascade(c[1:], c[:-1], 64, FloatBlock)
    extended, _ = _cascade_mp(c[1:], c[:-1], 64, 40)
    assert escape_step is None
    assert np.max(np.abs(double - extended)) < 1e-13


def _series_of(params, length):
    """u, v with u/v the Schur function of parameters ``params`` then 0, 0, ...

    Inverse Schur steps f_k = (a_k + z f_{k+1}) / (1 + conj(a_k) z f_{k+1})
    from f_K = 0 = 0/1, on polynomials of degree at most K < length.
    """
    u = np.zeros(length, dtype=complex)
    v = np.zeros(length, dtype=complex)
    v[0] = 1.0
    for a in reversed(params):
        zu = np.concatenate([[0.0], u[:-1]])
        u, v = a * v + zu, v + np.conj(a) * zu
    return u, v


@contextlib.contextmanager
def _recorded_escalations():
    """Yields a list of (u, v, n_max, dps, params), one per fixed-point cascade."""
    calls = []
    exact = schur._cascade_mp

    def spy(u, v, n_max, dps):
        params, loss = exact(u, v, n_max, dps)
        calls.append((u, v, n_max, dps, params))
        return params, loss

    with mock.patch.object(schur, "_cascade_mp", spy):
        yield calls


@pytest.mark.parametrize("a", [0.3, 0.6, 0.9])
def test_escalated_cascade_matches_mpmath_bitwise(a):
    mu = FAMILIES["geronimus"].measure(4096, 65, a=a)
    with _recorded_escalations() as calls:
        params = schur_parameters_from_measure(mu, 64)
    [(u, v, n_max, dps, exact)] = calls
    assert np.array_equal(params.values, exact)
    assert np.array_equal(exact, cascade_mp(u, v, n_max, dps)[0])


@settings(max_examples=12, deadline=None)
@given(
    c=st.floats(0.7, 0.9),
    p=st.floats(0.4, 0.7),
    theta=st.floats(0.1, 3.0),
)
def test_escalated_cascade_matches_mpmath_on_slow_decay(c, p, theta):
    # a_k = c e^{i k theta} / (k+1)^p: 48 steps lose 5 to 14 digits, most
    # of the range of the builtin families (geronimus loses 12.6 to 16.7 by
    # depth 64, checked bitwise above).
    # Fixed point holds each part of a parameter to 2^-P absolutely and
    # mpmath relative to that part, so a part at roundoff size (the
    # imaginary part of e^{i pi k}) can round to a neighbouring double,
    # though both are within about 1e-21 of exact; these phases keep both
    # parts of every parameter far from roundoff size.
    k = np.arange(48)
    u, v = _series_of(c * np.exp(1j * theta * k) / (k + 1.0) ** p, len(k) + 1)
    with _recorded_escalations() as calls:
        schur_parameters_from_series(u, v, 48)
    assert calls
    for u, v, n_max, dps, exact in calls:
        assert np.array_equal(exact, cascade_mp(u, v, n_max, dps)[0])


def test_escaped_double_pass_escalates_past_the_double_range():
    # |a_3| is 1.1e-12 below 1: the double pass escapes there and the
    # fixed-point pass does not, at dps 25 + ceil(loss) + n_max, so 2^P
    # is beyond any double
    u, v = _series_of([0.95, 0.8, 0.95, 1.0 - 1.1e-12, 0.5], 300)
    assert _cascade(u, v, 299, FloatBlock)[2] == 3
    with _recorded_escalations() as calls:
        params = schur_parameters_from_series(u, v, 299)
    [(_, _, _, dps, exact)] = calls
    assert fixed_bits(dps) > 1023
    assert np.array_equal(params.values, exact)
    assert np.array_equal(exact, cascade_mp(u, v, 299, dps)[0])


def test_escalate_redoes_a_pass_short_of_spare_digits():
    # the double pass escapes at step 3 having lost 4.1 digits, so the
    # exact pass runs at 25 + 5 + n_max digits; it loses 17 of them, which
    # leaves fewer than 21 spare, so it is redone once at 21 + 18 + 10
    u, v = _series_of([0.95, 0.8, 0.95, 1.0 - 1.1e-12, 0.5], 6)
    _, double_loss, escape_step = _cascade(u, v, 5, FloatBlock)
    assert escape_step == 3
    first = 25 + math.ceil(double_loss) + 5
    exact_loss = _cascade_mp(u, v, 5, first)[1]
    assert first < 21 + math.ceil(exact_loss)
    with _recorded_escalations() as calls:
        params = schur_parameters_from_series(u, v, 5)
    assert [dps for _, _, _, dps, _ in calls] == [first, 31 + math.ceil(exact_loss)]
    assert np.array_equal(params.values, calls[-1][4])


def test_escalate_redoes_an_exact_pass_at_most_once():
    # a pass whose loss always outruns its digits still runs only twice,
    # and the second result stands
    calls = []

    def exact_pass(dps):
        calls.append(dps)
        return len(calls), float(dps)

    assert _escalate(None, 5.0, True, 7, exact_pass) == 2
    assert calls == [30, 61]
    assert _escalate("double", 4.0, True, 7, exact_pass) == "double"
    assert calls == [30, 61]


@lru_cache(maxsize=None)
def _geronimus_series():
    # eight coefficients past the 64 the cascade reads, for the test to overwrite
    c = moments(FAMILIES["geronimus"].measure(4096, 65, a=0.6), 64 + 8)
    return c[1:], c[:-1], 64


@settings(max_examples=10, deadline=None)
@given(
    guard=st.lists(
        st.complex_numbers(max_magnitude=1e3, allow_nan=False), min_size=16, max_size=16
    )
)
@pytest.mark.parametrize("case", ["geronimus", "escape"])
def test_cascade_reads_no_guard_coefficient(case, guard):
    # a_s depends on u[:s+1] and v[:s+1] only: overwriting every coefficient
    # past n_max moves no bit of either pass, escaped or not
    if case == "geronimus":
        u, v, n_max = _geronimus_series()
    else:
        u, v = _series_of([0.5, 0.9, 1.0 - 1e-13, 0.3], 12)
        n_max = 4
    changed_u, changed_v = u.copy(), v.copy()
    changed_u[n_max:], changed_v[n_max:] = guard[:8], guard[8:]
    for num in (FloatBlock, FixedLists(41)):
        params, loss, step = _cascade(u, v, n_max, num)
        changed = _cascade(changed_u, changed_v, n_max, num)
        assert (params.tobytes(), loss, step) == (changed[0].tobytes(), *changed[1:])
        assert step == (None if case == "geronimus" else 2)


def _double_pass_bits(double_pass, u, v, n_max):
    """(parameter bytes, digit-loss bytes, escape step) of a double pass, or
    the type and message of the arithmetic error it raises."""
    try:
        params, loss, step = double_pass(u, v, n_max)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return params.tobytes(), struct.pack("<d", loss), step


def _float_block_pass(u, v, n_max):
    return _cascade(u, v, n_max, FloatBlock)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    length=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    decay=st.floats(0.0, 2.0),
    escape_at=st.one_of(st.none(), st.integers(0, 299)),
    huge=st.integers(0, 3),
)
def test_double_pass_is_the_float_reference_bitwise(
    length, seed, decay, escape_at, huge
):
    # parameters, digit-loss sum and escape step are bitwise those of one
    # Python float operation per rounding: on the series of random
    # parameters |a_k| <= 0.95 / (k + 1)^decay, one of them at the escape
    # threshold, and with entries near +-1.5e308 whose products overflow
    # before the escape test fires, silently, as Python floats do
    rng = np.random.default_rng(seed)
    params = rng.uniform(0.0, 0.95, length) / (np.arange(length) + 1.0) ** decay
    params = params * np.exp(2j * np.pi * rng.random(length))
    if escape_at is not None and length:
        params[escape_at % length] = (1.0 - 1e-13) * np.exp(2j * np.pi * rng.random())
    u, v = _series_of(params, length + 1)
    for _ in range(huge if length > 1 else 0):
        series, k = (u, v)[rng.integers(2)], rng.integers(1, length)
        series[k] = complex(*rng.choice([-1.5e308, 1.5e308, 1.0], 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _double_pass_bits(_float_block_pass, u, v, length)
    assert got == _double_pass_bits(cascade_floats, u, v, length)


@pytest.mark.parametrize(
    "spec, grid_size",
    [
        ({"name": "ell2", "c": 0.5, "p": 1.0}, 32768),
        (
            {
                "name": "mixed",
                "base": {"name": "bernstein_szego", "r": 0.3},
                "atoms": [{"angle": 2.0, "mass": 0.2}],
            },
            16384,
        ),
        ({"name": "geronimus", "a": 0.6}, 4096),
        ({"name": "bernstein_szego", "r": 0.5}, 4096),
        ({"name": "lebesgue"}, 4096),
    ],
    ids=["ell2", "mixed", "geronimus", "bs", "lebesgue"],
)
def test_double_pass_is_the_float_reference_on_family_moments(spec, grid_size):
    # the benchmark workloads' measures and two more, at depth 257: the
    # double pass the builds and the routes take is the reference's, bit
    # for bit, whether it stands (mixed, bs, lebesgue) or not (geronimus)
    c = moments(build_family(spec, grid_size, 257).measure, 257)
    assert _double_pass_bits(
        _float_block_pass, c[1:], c[:-1], 257
    ) == _double_pass_bits(cascade_floats, c[1:], c[:-1], 257)


_PARAMETER = st.builds(
    lambda r, t: r * complex(np.exp(1j * t)), st.floats(0.0, 0.999), st.floats(0.0, 6.3)
)


@settings(max_examples=40, deadline=None)
@given(
    params=st.lists(_PARAMETER, min_size=1, max_size=12),
    escape_at=st.one_of(st.none(), st.integers(0, 11)),
    extra=st.integers(1, 8),
    dps=st.integers(20, 90),
)
@example(params=[0.95, 0.8, 0.95, 0.5], escape_at=3, extra=1, dps=35)
@example(params=[0.9j, 0.99, -0.9], escape_at=None, extra=3, dps=330)
def test_exact_cascade_is_the_fixed_reference_bitwise(params, escape_at, extra, dps):
    # parameters and digit loss, or the ParameterEscape and its message,
    # are those of the cascade on one Fixed object per number, which also
    # converts and updates every guard coefficient
    if escape_at is not None:
        params.insert(min(escape_at, len(params)), 1.0 - 1e-13)
    n_max = len(params)
    u, v = _series_of(params, n_max + extra)
    assert exact_pass_outcome(_cascade_mp, u, v, n_max, dps) == exact_pass_outcome(
        cascade_fixed, u, v, n_max, dps
    )


_SMALL_COMPLEX = st.complex_numbers(max_magnitude=1e3, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(
    x=st.lists(_SMALL_COMPLEX, min_size=1, max_size=6),
    y=st.lists(_SMALL_COMPLEX, min_size=1, max_size=6),
    a=_SMALL_COMPLEX.filter(lambda z: abs(z) > 1e-3),
    dps=st.integers(20, 330),
)
def test_fixed_lists_are_the_fixed_arithmetic_integer_for_integer(x, y, a, dps):
    # each operation floors where Fixed floors, so the integers, not only
    # the doubles they round to, are the reference's
    num, bits = FixedLists(dps), fixed_bits(dps)
    fx, fy, fa = ([Fixed.of(v, bits) for v in vs] for vs in (x, y, [a]))
    fa = fa[0]

    def ints(values):
        return [v.re for v in values], [v.im for v in values]

    vx, vy, va = num.vector(x), num.vector(y), num.head(num.vector([a]))
    assert (vx, vy) == (ints(fx), ints(fy))
    total = sum((p * q for p, q in zip(fx, fy)), Fixed(0, 0, bits))
    assert num.dot(vx, vy) == (total.re, total.im)
    assert num.sub_mul(vx, va, vy) == ints([p - fa * q for p, q in zip(fx, fy)])
    assert num.conj_all(vx) == ints([p.conjugate() for p in fx])
    quotient = num.div(num.head(vx), va)
    assert quotient == ((fx[0] / fa).re, (fx[0] / fa).im)
    assert num.value(quotient) == complex(fx[0] / fa)
    assert num.shift(vx) == ints([Fixed(0, 0, bits), *fx])
    assert num.extend(vx) == ints([*fx, Fixed(0, 0, bits)])


@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_fixed_point_holds_every_double_exactly(x):
    # 2^-1074 is the least double, so past 1074 bits no input is floored
    exact = FixedLists(330)
    assert exact.value(exact.head(exact.vector([x]))) == x


def test_szego_formula_exact_for_finite_parameter_families(leb, bs_half):
    assert szego_formula_residuals(leb.measure, leb.params, [64])[0] < 1e-10
    assert szego_formula_residuals(bs_half.measure, bs_half.params, [64])[0] < 1e-10


def test_entropy_product_closed_form(bs_half):
    # single parameter r: K(mu, z) = log((1 - r^2 |z|^2)/(1 - r^2))
    for z in (0.0, 0.3, 0.5, 0.8j):
        expected = math.log((1.0 - 0.25 * abs(z) ** 2) / 0.75)
        f0 = schur_eval(bs_half.measure, z)
        (got,) = entropy_products(bs_half.params, z, f0, [8])
        assert abs(got - expected) < 1e-10


def test_entropy_products_fail_where_their_own_pass_would():
    # with zero parameters f_k = f_0 / z^k: |f_0| sits just above 1, so the
    # factor at step 0 fails, and |f_5| passes 1 + 1e-10; a sweep that read
    # to its deepest n first would raise ContractivityLoss instead
    params = SchurParameters(np.zeros(16))
    z, f0 = 1.0 - 1e-11, 1.0 + 0.5e-10
    with pytest.raises(IdentityCheckFailed, match="at step 0"):
        entropy_products(params, z, f0, [1])
    with pytest.raises(IdentityCheckFailed, match="at step 0"):
        entropy_products(params, z, f0, [1, 16])
    with pytest.raises(ContractivityLoss, match="f_5"):
        entropy_products(params, z, f0, [16])


def test_sum_bound_is_equality_for_one_parameter(bs_half):
    from opuclab.szego import entropy

    for z in (0.0, 0.4j, 0.6):
        f0 = schur_eval(bs_half.measure, z)
        # the quadrature entropy is the robust right side; the default
        # full-depth product would iterate far past the noise horizon on
        # these measure-extracted parameters
        lhs, rhs = schur_sum_bound(
            bs_half.params, z, f0, 8,
            entropy_value=entropy(bs_half.measure, z),
        )
        # closed form (1 - |z|^2) r^2 / (1 - r^2) on both sides
        expected = (1.0 - abs(z) ** 2) * 0.25 / 0.75
        assert abs(lhs - expected) < 1e-10
        assert abs(lhs - rhs) < 1e-10


def test_sum_bound_never_exceeds_entropy_side(geronimus6):
    from opuclab.szego import entropy

    mu = geronimus6.measure
    for z in (0.0, 0.5, -0.6j):
        f0 = schur_eval(mu, z)
        n = 16 if z else 64
        lhs, rhs = schur_sum_bound(
            geronimus6.params, z, f0, n, entropy_value=entropy(mu, z)
        )
        assert lhs <= rhs + 1e-10


def test_khrushchev_rhs_against_poisson_quadrature(bs_half):
    from opuclab.measure import weighted_poisson
    from opuclab.opuc import eval_grid_table

    mu = bs_half.measure
    for n, z in ((2, 0.5), (6, 0.5 - 0.4j), (16, 0.8j)):
        f0 = schur_eval(mu, z)
        rhs = khrushchev_rhs(bs_half.params, z, f0, n)
        _, phis = eval_grid_table(bs_half.params, mu.boundary_points, n)
        lhs = weighted_poisson(mu, np.abs(phis[n]) ** 2, z)
        assert abs(lhs - rhs) < 1e-6


def test_khrushchev_rhs_edge_cases(bs_half):
    assert khrushchev_rhs(bs_half.params, 0.0, 0.5, 4) == 1.0
    with pytest.raises(OutOfRange):
        khrushchev_rhs(bs_half.params, 1.0 + 0j, 0.5, 4)
    with pytest.raises(NearZeroArgument):
        khrushchev_rhs(bs_half.params, 1e-5, 0.5, 4)


def test_iterate_rejects_expansion(bs_half):
    with pytest.raises(ContractivityLoss):
        schur_iterate_eval(bs_half.params, 1.5 + 0j, 0.5, 2)


def test_iterate_depth_capped_by_storage():
    params = SchurParameters(np.array([0.5 + 0j]))
    with pytest.raises(OutOfRange):
        schur_iterate_eval(params, 0.5 + 0j, 0.5, 5)


def test_noise_horizon_values():
    assert iterate_noise_horizon(0.5) == 16
    assert iterate_noise_horizon(0.9) == 109
    assert iterate_noise_horizon(0.97) == 10_000


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(min_value=0.05, max_value=0.8),
    mag=st.floats(min_value=0.05, max_value=0.85),
    arg=st.floats(min_value=0.0, max_value=6.283),
)
def test_iterates_stay_contractive(r, mag, arg):
    # the supplied starting value must belong to the parameter sequence:
    # f identically r pairs with (r, 0, 0, ...), and the constant sequence
    # (r, r, ...) pairs with the fixed point of the parameter shift
    from opuclab.families import _geronimus_schur_value

    z = mag * complex(np.exp(1j * arg))
    depth = min(8, iterate_noise_horizon(z))

    one_shot = np.zeros(8, dtype=complex)
    one_shot[0] = r
    params = SchurParameters(one_shot)
    for k in range(depth + 1):
        assert abs(schur_iterate_eval(params, complex(r), z, k)) < 1.0

    constant = SchurParameters(np.full(8, r, dtype=complex))
    fixed = _geronimus_schur_value(r, z)
    for k in range(depth + 1):
        value = schur_iterate_eval(constant, fixed, z, k)
        assert abs(value) < 1.0
        # the shift maps the fixed point to itself
        assert abs(value - fixed) < 1e-7 * (1.0 / mag) ** k
