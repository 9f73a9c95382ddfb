"""Cesaro-limit harnesses: density recovery, rate sandwich, CMV summability.

The central diagnostic is the Cesaro mean of squared polynomial values,

    (1/n) sum_{k<n} |phi_k(xi0)|^2  ->  1 / w(xi0)

at points where the measure looks like its density.  The sandwich bounds it
for every finite n by scale-localized extension extrema,

    1/F_n  <=  (1/n) sum_{k<n} |phi_k(xi0)|^2  <=  1/P_n + 64 K_n^{1/4}/P_n,

where the upper half needs the entropy hypothesis K_n <= 1 and the lower
half is a pure variational fact (the normalized Fejer polynomial competes
in the Christoffel minimum) and needs nothing.  Every sweep reads its
rows by prefix from values at xi0 to the largest n, since a prefix of one
pass is bitwise the shorter pass.  Those values come from the run's one
transfer table over every boundary point it reads (``experiments``,
``RunContext.boundary_table``), whose columns are bitwise one-point
passes: the sandwich reads phi_k there plus one entropy profile over
every n (``sandwich_rows``), or its point's rows of one profile over
every angle of the run (``profile_sandwich``), and the summability sweep
reads chi_k there plus one Poisson call over its points
(``summability_conditions``).  The sweeps return plain rows, which
``experiments`` writes to CSV.

The CMV half: partial-sum strong Cesaro deviation at a point, and the
per-n boundedness condition that drives it.  Both read the Fourier
coefficients against the chi basis by prefix; those come from
``opuc.cmv_sums``, for f = 1 and f = Re xi, which depend on neither the
test point nor n, so a caller computes them once at its largest order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import OutOfRange
from .measure import CircleMeasure, _as_boundary, _order, poisson, snap
from .opuc import cd_quotient, eval_grid_table
from .schur import SchurParameters
from .szego import entropy_profile

# Rate-bound constant multiplying K_n^{1/4} in the sandwich upper half.
SANDWICH_RATE_CONSTANT = 64.0


@dataclass(frozen=True)
class SandwichRow:
    """One n of the rate-bound sweep at a fixed boundary point."""

    n: int
    cesaro: float
    target: float
    lower: float
    upper: float
    k_n: float
    p_n: float
    f_n: float

    @property
    def hypothesis_met(self) -> bool:
        """The upper half is only backed by theory when K_n <= 1."""
        return self.k_n <= 1.0


def sandwich_rows(
    mu: CircleMeasure,
    phi: np.ndarray,
    xi0: complex,
    n_list: Sequence[int],
    delta_grid_size: int = 64,
) -> Tuple[SandwichRow, ...]:
    """Sandwich rows for every n in the sweep: the Cesaro mean against
    1/F_n and 1/P_n + 64 K_n^(1/4)/P_n.

    ``phi`` holds phi_0(xi0)..phi_m(xi0), m >= max(n_list) - 1, as one
    contiguous array (a column of the run's boundary table); one
    ``entropy_profile`` over n_list gives (K_n, P_n, F_n), and
    ``profile_sandwich`` the rows.
    """
    xi0 = _as_boundary(xi0)
    profile = entropy_profile(mu, xi0, n_list, delta_grid_size)
    return profile_sandwich(mu, phi, xi0, profile)


def profile_sandwich(
    mu: CircleMeasure, phi: np.ndarray, xi0: complex, profile
) -> Tuple[SandwichRow, ...]:
    """Sandwich rows at the boundary point xi0 from its ``entropy_profile``
    rows, for a caller that takes the profiles of several points in one
    batch (``experiments.RunContext``).  Each Cesaro mean reads a prefix
    of ``phi``, as in ``sandwich_rows``.  The target column records 1/w at
    the grid node ``snap`` picks for xi0, a diagnostic only; nothing is
    asserted against it.
    """
    j, _ = snap(mu.grid_size, xi0)
    target = 1.0 / max(float(mu.weight[j]), 1e-300)
    return tuple(
        SandwichRow(
            n=row.n,
            cesaro=float(np.mean(np.abs(phi[: row.n]) ** 2)),
            target=target,
            lower=1.0 / row.f_n,
            upper=(1.0 + SANDWICH_RATE_CONSTANT * row.k_n ** 0.25) / row.p_n,
            k_n=row.k_n,
            p_n=row.p_n,
            f_n=row.f_n,
        )
        for row in profile
    )


# -----------------------------------------------------------------------------
# CMV Fourier analysis
# -----------------------------------------------------------------------------
def partial_sum_deviation(
    coeffs: np.ndarray, chi_vals: np.ndarray, f_at_xi0: complex
) -> float:
    """(1/n) sum_{k<n} |S_k(xi0) - f(xi0)| from c_0..c_{n-1} and
    chi_0(xi0)..chi_{n-1}(xi0), either of them prefixes of longer ones.

    S_k = sum_{j<=k} c_j chi_j(xi0) is the k-th CMV partial sum.
    """
    partial = np.cumsum(coeffs * chi_vals)
    return float(np.mean(np.abs(partial - complex(f_at_xi0))))


def summability_conditions(
    mu: CircleMeasure, chi_vals: np.ndarray, xi0: complex, n_list: Sequence[int]
) -> list[tuple[float, float]]:
    """Per-n boundedness pairs behind strong Cesaro summability.

    At each n of the sweep, lhs = (1/n) sum_{k<=n} |chi_k(xi0)|^2, read off
    ``chi_vals``, chi_0(xi0)..chi_m(xi0) with m >= max(n_list), by prefix, and
    rhs_unit = 1/P(mu, (1 - 1/n) xi0), all from one ``poisson`` call; the
    empirical constant of a sweep is the sup of lhs/rhs_unit.
    """
    xi0 = _as_boundary(xi0)
    n_list = [_order(n, 1, "condition order n") for n in n_list]
    p_mu = poisson(mu, np.array([(1.0 - 1.0 / n) * xi0 for n in n_list]))
    return [
        (float(np.sum(np.abs(chi_vals[: n + 1]) ** 2) / n), 1.0 / float(p))
        for n, p in zip(n_list, p_mu)
    ]


def cd_at_zero_residual(params: SchurParameters, xi, n: int):
    """Worst mismatch of the kernel-at-zero identity for k = 1..n.

    Checks sum_{j<k} conj(phi_j(0)) phi_j(xi) against its two-term form,
    ``opuc.cd_quotient`` with 0 in place of xi, where the denominator is 1.
    ``xi`` is one boundary point (returns a float) or a 1-d array of them
    (returns a list); one transfer table over z = 0 and the points gives
    every value, so each residual is bitwise its one-point call.
    """
    if n < 1:
        raise OutOfRange("identity check requires n >= 1")
    zs = np.concatenate(([0.0], np.atleast_1d(xi))).astype(complex)
    # one contiguous row of orders per point, so the products below take
    # the same numpy loops as on a one-point table's column
    phi, phis = (table.T.copy() for table in eval_grid_table(params, zs, n))
    residuals = []
    for z, phi_x, phis_x in zip(zs[1:], phi[1:], phis[1:]):
        direct = np.cumsum(np.conj(phi[0, :n]) * phi_x[:n])
        two_term = cd_quotient(0.0, z, phi[0, 1:], phis[0, 1:], phi_x[1:], phis_x[1:])
        residuals.append(float(np.max(np.abs(two_term - direct))))
    return residuals[0] if np.ndim(xi) == 0 else residuals
