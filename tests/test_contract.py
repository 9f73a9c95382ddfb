"""The library's error contract (README, "Library use"), property-tested.

For inputs of the documented types, every function in ``opuclab.__all__``
that takes a point, an order or a size returns finite values or raises an
``OpuclabError`` subclass; pyproject's ``filterwarnings`` turns a numpy
RuntimeWarning into a failure here too.  Sizes are drawn only from values
refused before any array exists, plus small valid ones, so no draw
allocates a huge grid.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuclab import (
    CircleMeasure,
    FamilyInstance,
    OpuclabError,
    SchurParameters,
    build_family,
    build_measure,
    entropy,
    entropy_profile,
    fejer_mean,
    lebesgue,
    moment,
    poisson,
    poisson_log_weight,
    schur_eval,
    schur_parameters_from_measure,
    szego_interior,
    weighted_poisson,
)
from opuclab.szego import ProfileRow

EXTREMES = (
    0,
    5e-324,
    1e-300,
    1.5,
    -1,
    1e300,
    1.7e308,
    math.inf,
    -math.inf,
    math.nan,
    complex("nan"),
    True,
)
REALS = tuple(v for v in EXTREMES if not isinstance(v, complex))

extreme = st.sampled_from(EXTREMES)
# a point alone, or first in a batch with a valid one
points = st.sampled_from(EXTREMES + (0.5, -0.3j, 1.7e308 + 1.7e308j)).flatmap(
    lambda z: st.sampled_from([z, np.array([z, 0.2])])
)
boundary = st.sampled_from(EXTREMES + (1j, -1.0 + 0j))
orders = st.sampled_from(EXTREMES + (1, 4))
grids = st.sampled_from(EXTREMES + (64, 512))
reals = st.sampled_from(REALS + (0.5, 2.0))

MIXED = {
    "name": "mixed",
    "base": {"name": "bernstein_szego", "r": 0.5},
    "atoms": [{"angle": 2.0, "mass": 0.2}],
}


@functools.cache
def _mu() -> CircleMeasure:
    return build_family(MIXED, 512, 8).measure


def _weighted(z, g, g_atom):
    mu = _mu()
    return weighted_poisson(mu, np.full(mu.grid_size, g), z, [g_atom])


CALLS = {
    "poisson": (lambda z: poisson(_mu(), z), points),
    "poisson_log_weight": (lambda z: poisson_log_weight(_mu(), z), points),
    "weighted_poisson": (_weighted, points, reals, reals),
    "entropy": (lambda z: entropy(_mu(), z), points),
    "szego_interior": (lambda z: szego_interior(_mu(), z), points),
    "schur_eval": (lambda z: schur_eval(_mu(), z), points),
    "moment": (lambda k: moment(_mu(), k), orders),
    "fejer_mean": (lambda xi0, n: fejer_mean(_mu(), xi0, n), boundary, orders),
    "entropy_profile": (
        lambda xi0, n, size: entropy_profile(_mu(), xi0, [n], size),
        boundary,
        orders,
        orders,
    ),
    "schur_parameters_from_measure": (
        lambda n: schur_parameters_from_measure(_mu(), n),
        orders,
    ),
    "lebesgue": (lebesgue, grids),
    "build_family": (
        lambda size, depth: build_family(MIXED, size, depth),
        grids,
        orders,
    ),
    "build_measure": (
        lambda w, angle, mass, normalize: build_measure(
            [w, 1.0], [(angle, mass)], normalize
        ),
        reals,
        reals,
        reals,
        st.booleans(),
    ),
}


def _finite(value) -> bool:
    if isinstance(value, FamilyInstance):
        return _finite(value.measure) and _finite(value.params)
    if isinstance(value, CircleMeasure):
        return _finite(value.weight) and _finite(value.atoms)
    if isinstance(value, SchurParameters):
        return _finite(value.values)
    if isinstance(value, tuple) and value and isinstance(value[0], ProfileRow):
        return all(_finite((row.k_n, row.p_n, row.f_n)) for row in value)
    return bool(np.all(np.isfinite(np.asarray(value))))


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_public_calls_return_finite_values_or_raise_opuclab_errors(name, data):
    call, *strategies = CALLS[name]
    args = [data.draw(strategy) for strategy in strategies]
    try:
        value = call(*args)
    except OpuclabError:
        return
    assert _finite(value), (name, args, value)
