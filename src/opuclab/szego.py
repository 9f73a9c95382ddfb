"""Szego outer function and the pointwise entropy of a circle measure.

The outer function D of a measure with log-integrable density w satisfies
|D|^2 = w on the boundary and D(0) > 0.  The entropy at an interior point z
compares the harmonic extension of the full measure against the geometric
mean seen through log w:

    entropy(mu, z) = log P(mu, z) - P(log w, z)  >=  0,

with equality for Lebesgue measure only (Jensen).  The per-n profile
quantities are the scale-localized versions at z = (1 - delta/n) xi0:

    K_n = sup over delta in (0,1) of the entropy,
    P_n = inf over delta in (0,1) of the Poisson extension,
    F_n = Fejer mean of order n - 1 at xi0,

approximated on a log-spaced delta grid.

Resolution guard
----------------
Grid quadrature of the Poisson kernel is only trustworthy while the kernel
is wider than the grid spacing: N * (1 - |z|) must stay above a few units,
or the nearest sample dominates the sum and both extensions degrade
together (the entropy then comes out violently negative).  Profile extrema
therefore ignore delta values that put z closer to the boundary than the
grid resolves; the public ``entropy`` keeps its strict nonnegativity
assertion and is meant for resolved points.  The closed form behind the
Poisson means (see :mod:`opuclab.measure`) sums the grid quadrature
exactly, up to rounding, so it resolves no more than the grid does, and
the profile rows keep their meaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import EntropyNegative, OutOfRange
from .measure import (
    CircleMeasure,
    _as_boundary,
    _interior_points,
    _one_or_many,
    _order,
    _poisson_means,
    _schwarz_kernel,
    fejer_mean,
)

# Entropy values this far below zero are attributed to cancellation between
# the two quadratures and clipped; anything lower is a genuine failure.
_ENTROPY_ROUNDOFF = 1e-10

# Minimum kernel width in grid units, N * (1 - |z|), for a Poisson quadrature
# to count as resolved.  exp(-8) ~ 3e-4 bounds the relative error there.
_MIN_RESOLVED = 8.0

# Profile-internal clip for entropy at barely-resolved points; beyond this
# the value is not quadrature noise.
_PROFILE_ROUNDOFF = 0.05

_DELTA_MIN = 1e-4


def szego_interior(mu: CircleMeasure, z) -> complex | np.ndarray:
    """Outer function D(z) at interior points, via the Schwarz kernel.

    D(z) = exp( (1/2) * mean over grid of (xi + z)/(xi - z) * log w(xi) ).
    Atoms do not contribute.  D(0) is real positive.  ``z`` is one
    interior point (returns a complex) or a 1-d array of them.
    """
    mu.require_szego()
    zs = _interior_points(z)
    means = _poisson_means(mu, zs, [("log_weight", None)], _schwarz_kernel)[0]
    return _one_or_many(z, np.exp(0.5 * means))


def szego_boundary(mu: CircleMeasure) -> np.ndarray:
    """Nontangential boundary values of D on the grid, via FFT conjugation.

    Writes u = (1/2) log w and builds its harmonic conjugate v; exp(u + i v)
    then satisfies |D|^2 = w exactly at every grid point and D(0) =
    exp(mean u) > 0.
    """
    mu.require_szego()
    u = 0.5 * np.log(mu.weight)
    return np.exp(u + 1j * harmonic_conjugate(u))


def harmonic_conjugate(samples: np.ndarray) -> np.ndarray:
    """Grid samples of the conjugate function, mean zero.

    Fourier multiplier -i sign(k), with the unpaired Nyquist mode dropped
    for even grids.  The samples are real, so one real FFT pair carries
    it: -i on the modes k = 1..ceil(N/2) - 1, whose conjugates at -k take
    +i, with k = 0 and the even-N Nyquist mode zeroed.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    s_hat = np.fft.rfft(samples)
    s_hat *= -1j
    s_hat[0] = 0.0
    if n % 2 == 0:
        s_hat[-1] = 0.0
    return np.fft.irfft(s_hat, n)


def _entropy_terms(mu: CircleMeasure, zs: list) -> Tuple[np.ndarray, np.ndarray]:
    """P(mu, z) and log P(mu, z) - P(log w, z) over the interior points zs,
    with no sign policing; one Poisson kernel per point serves both."""
    mu.require_szego()
    masses = mu.atom_masses if mu.atoms else None
    p_mu, p_log = _poisson_means(
        mu, zs, [("weight", masses), ("log_weight", None)]
    )
    return p_mu, np.log(p_mu) - p_log


def entropy(mu: CircleMeasure, z) -> float | np.ndarray:
    """Pointwise entropy log P(mu, z) - P(log w, z), >= 0 up to roundoff.

    ``z`` is one interior point (returns a float) or a 1-d array of them.
    """
    zs = _interior_points(z)
    _, values = _entropy_terms(mu, zs)
    low = np.flatnonzero(values < -_ENTROPY_ROUNDOFF)
    if low.size:
        raise EntropyNegative(
            f"entropy {values[low[0]]:.6g} at z = {zs[low[0]]!r} below the "
            "roundoff floor; the point may be unresolved by the grid"
        )
    return _one_or_many(z, np.maximum(values, 0.0))


@dataclass(frozen=True)
class ProfileRow:
    """Scale-n extension extrema at a boundary point."""

    n: int
    k_n: float
    p_n: float
    f_n: float


def entropy_profile(
    mu: CircleMeasure,
    xi0,
    n_list: Sequence[int],
    delta_grid_size: int = 64,
) -> Tuple[ProfileRow, ...] | Tuple[Tuple[ProfileRow, ...], ...]:
    """Approximate (K_n, P_n, F_n) over a log-spaced delta grid, one row per n.

    For each n, z runs over (1 - delta/n) xi0 with delta in
    [1e-4, 1 - 1e-4]; K_n is the max of the entropy and P_n the min of the
    Poisson extension over the deltas the grid actually resolves
    (N * delta / n >= 8).  Small negative entropy excursions at
    barely-resolved points are clipped to zero.

    ``xi0`` is one boundary point (returns its rows) or a 1-d array of
    them (returns a tuple of each point's rows).  Every point and n is
    checked first; then one ``_entropy_terms`` call over the points of all
    of them gives both extensions, and the rows of each point and n read
    their own slice, so each point's rows are bitwise its one-point rows.
    A point's rows are formed in order, each after its own entropy check,
    and the first point that fails raises its one-point error.
    """
    mu.require_szego()
    if np.ndim(xi0) > 1:
        raise OutOfRange("boundary points must be one point or a 1-d array")
    xis = [_as_boundary(xi) for xi in (xi0 if np.ndim(xi0) else [xi0])]
    delta_grid_size = _order(delta_grid_size, 2, "delta_grid_size")
    deltas = np.geomspace(_DELTA_MIN, 1.0 - _DELTA_MIN, delta_grid_size)
    n_list = [_order(n, 1, "profile order n") for n in n_list]
    scales = []
    for n in n_list:
        trusted = deltas / n >= _MIN_RESOLVED / mu.grid_size
        if not trusted.any():
            raise OutOfRange(
                f"no resolved delta for n = {n} at grid_size {mu.grid_size}; "
                "enlarge the grid"
            )
        scales.append(1.0 - deltas[trusted] / n)
    zs = []
    ends = []
    for xi in xis:
        for scale in scales:
            zs += _interior_points(scale * xi)
            ends.append(len(zs))
    p_mu, values = _entropy_terms(mu, zs)
    parts = iter(np.split(np.arange(len(zs)), ends[:-1]))
    profiles = []
    for xi in xis:
        rows = []
        for n, part in zip(n_list, parts):
            low = part[values[part] < -_PROFILE_ROUNDOFF]
            if low.size:
                raise EntropyNegative(
                    f"entropy {values[low[0]]:.6g} at resolved z = {zs[low[0]]!r}"
                )
            k_n = np.max(np.maximum(values[part], 0.0))
            p_n = np.min(p_mu[part])
            rows.append(ProfileRow(n, float(k_n), float(p_n), fejer_mean(mu, xi, n)))
        profiles.append(tuple(rows))
    return profiles[0] if np.ndim(xi0) == 0 else tuple(profiles)
