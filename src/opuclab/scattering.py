"""Wave operators for the one-sided transfer recursion on the boundary.

Everything here is built from three boundary objects on the measure's grid:

* the outer function D with |D|^2 = w,
* the Herglotz transform F, whose real part on the boundary is w and whose
  imaginary part is the conjugate function of w plus an explicit closed-form
  term per atom,
* the dual family psi_n, the polynomials of the sign-flipped parameters,
  whose density is v = w / |F|^2 and whose outer function is D / F.

The scattering combinations

    f_+ = (1/2) D^{-1}      [ (psi_n, -psi_n*) + F (phi_n, phi_n*) ]
    f_- = -(1/2) conj(D)^{-1} [ (psi_n, -psi_n*) - conj(F) (phi_n, phi_n*) ]

solve the same one-step recursion as (phi_n, phi_n*) by construction, and
for decaying parameters they track the free solutions (xi^n, 0) and (0, 1)
in averaged norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .measure import CircleMeasure, _as_boundary, snap
from .opuc import dual_parameters, eval_grid_table, eval_table
from .schur import SchurParameters
from .szego import harmonic_conjugate, szego_boundary


def herglotz_boundary(mu: CircleMeasure) -> np.ndarray:
    """Boundary values of the Herglotz transform on the grid.

    F = w + i (conjugate function of w + atom terms); each atom at xi_a with
    mass m contributes the purely imaginary 2 i m Im(xi conj(xi_a)) /
    |xi_a - xi|^2.  At a node hit by an atom the value is non-finite and
    callers must mask it.
    """
    return _herglotz_at(mu, slice(None), mu.boundary_points)


def _herglotz_at(mu: CircleMeasure, nodes: slice, xi: np.ndarray) -> np.ndarray:
    """F at the grid nodes ``nodes``, whose points are xi; elementwise, so
    a one-node slice gets that node's bits of ``herglotz_boundary``."""
    f = (mu.weight + 1j * harmonic_conjugate(mu.weight))[nodes]
    for angle, mass in mu.atoms:
        xi_a = np.exp(1j * angle)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = f + 2j * mass * np.imag(xi * np.conj(xi_a)) / np.abs(xi_a - xi) ** 2
    return f


def dual_weight(mu: CircleMeasure) -> np.ndarray:
    """Density grid of the dual measure, v = w / |F|^2 (zero at atom nodes)."""
    with np.errstate(invalid="ignore"):
        v = mu.weight / np.abs(herglotz_boundary(mu)) ** 2
    return np.where(np.isfinite(v), v, 0.0)


@dataclass(frozen=True)
class JostSolution:
    """One recursion solution pinned to a boundary point.

    ``entries[n]`` holds the two components at step n; ``side`` records
    which free solution it is normalized against: "+" tracks (xi^n, 0),
    "-" tracks (0, 1).
    """

    xi: complex
    side: str
    entries: np.ndarray

    @property
    def n_max(self) -> int:
        return self.entries.shape[0] - 1

    def target(self, n: int) -> np.ndarray:
        if self.side == "+":
            return np.array([self.xi**n, 0.0])
        return np.array([0.0, 1.0])


def jost_solutions(
    mu: CircleMeasure, params: SchurParameters, xi: complex, n_max: int
) -> tuple[JostSolution, JostSolution]:
    """Both scattering solutions at the grid node nearest xi.

    The boundary data D and F live on the grid, so xi snaps to its closest
    node; the polynomials are evaluated at that node too.  F is taken at
    that node alone, bitwise ``herglotz_boundary(mu)[j]``.
    """
    xi = _as_boundary(xi)
    j, node = snap(mu.grid_size, xi)
    f_j = _herglotz_at(mu, slice(j, j + 1), np.array([node]))[0]
    if not np.isfinite(f_j):
        raise OutOfRange(
            f"evaluation node at angle {np.angle(node):.6g} carries an atom"
        )
    d_j = szego_boundary(mu)[j]
    phi, phis = eval_table(params, node, n_max)
    psi, psis = eval_table(dual_parameters(params), node, n_max)
    base = np.stack([psi, -psis], axis=1)
    poly = np.stack([phi, phis], axis=1)
    plus = 0.5 / d_j * (base + f_j * poly)
    minus = -0.5 / np.conj(d_j) * (base - np.conj(f_j) * poly)
    return JostSolution(node, "+", plus), JostSolution(node, "-", minus)


def jost_step_defects(params: SchurParameters, sol: JostSolution) -> np.ndarray:
    """One-step defects of a solution under the transfer recursion.

    For each n < min(sol.n_max, len(params)) the predicted next entry is

        ( (xi x_n - conj(a_n) y_n) / rho_n, (y_n - a_n xi x_n) / rho_n )

    and defect n is its distance from entry n + 1 relative to
    max(1, ||entry_n||).
    """
    n_steps = min(sol.n_max, len(params))
    xi = sol.xi
    a = params.values
    rho = params.rho
    defects = np.empty(n_steps)
    for n in range(n_steps):
        x, y = sol.entries[n]
        pred = np.array(
            [(xi * x - np.conj(a[n]) * y) / rho[n], (y - a[n] * xi * x) / rho[n]]
        )
        defect = float(np.linalg.norm(sol.entries[n + 1] - pred))
        scale = max(1.0, float(np.linalg.norm(sol.entries[n])))
        defects[n] = defect / scale
    return defects


def averaged_jost_deviation(sol: JostSolution, n: int) -> float:
    """(1/n) sum_{k<n} of the distance from entry k to its free target."""
    if n < 1 or n > sol.n_max + 1:
        raise OutOfRange(f"average over n = {n} entries unavailable")
    total = 0.0
    for k in range(n):
        total += float(np.linalg.norm(sol.entries[k] - sol.target(k)))
    return total / n


def duality_identity_residual(
    mu: CircleMeasure, params: SchurParameters, n_check: int = 32
) -> float:
    """Max defect of the pairing identities between a family and its dual.

    Checks Re(phi_n*(xi) conj(psi_n*(xi))) = 1 over the grid for all
    n <= n_check, and Re(1 / (D_mu conj(D_nu))) = 1 over the nodes where
    the Herglotz values are finite.
    """
    grid = mu.boundary_points
    _, phis = eval_grid_table(params, grid, n_check)
    _, psis = eval_grid_table(dual_parameters(params), grid, n_check)
    poly_resid = float(np.max(np.abs(np.real(phis * np.conj(psis)) - 1.0)))

    f_grid = herglotz_boundary(mu)
    mask = np.isfinite(f_grid)
    d_mu = szego_boundary(mu)[mask]
    d_nu = (szego_boundary(mu) / f_grid)[mask]
    outer_resid = float(
        np.max(np.abs(np.real(1.0 / (d_mu * np.conj(d_nu))) - 1.0))
    )
    return max(poly_resid, outer_resid)
