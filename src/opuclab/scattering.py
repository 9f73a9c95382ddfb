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
in averaged norm.  ``_herglotz_at`` reads F at grid nodes and keeps
nothing; a run holds its nodes and D and F there
(``experiments.RunContext.nodes``, ``outer_values`` and
``herglotz_values``).  ``jost_pairs`` takes D and F at the nodes and
phi_k and phi*_k there from a transfer table the caller already holds (a
run reads them from its one table over every boundary point,
``experiments.RunContext.boundary_table``), and runs only the dual
parameters' pass.  ``jost_step_defects`` checks all steps at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .measure import CircleMeasure
from .opuc import dual_parameters, eval_grid_table
from .schur import SchurParameters
from .szego import harmonic_conjugate


def _herglotz_at(mu: CircleMeasure, nodes, xi: np.ndarray) -> np.ndarray:
    """Boundary values of the Herglotz transform at the grid nodes
    ``nodes`` (a slice or index array), whose points are xi.

    F = w + i (conjugate function of w + atom terms); each atom at xi_a
    with mass m contributes the purely imaginary
    2 i m Im(xi conj(xi_a)) / |xi_a - xi|^2.  Elementwise, so a node gets
    the same bits whatever else is read with it.  At a node hit by an atom
    the value is non-finite and callers must mask it.
    """
    f = (mu.weight + 1j * harmonic_conjugate(mu.weight))[nodes]
    for angle, mass in mu.atoms:
        xi_a = np.exp(1j * angle)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = f + 2j * mass * np.imag(xi * np.conj(xi_a)) / np.abs(xi_a - xi) ** 2
    return f


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

    def vanishing_mean(self, n: int) -> float:
        """Mean modulus of the component the target holds at zero, k < n."""
        return float(np.mean(np.abs(self.entries[:n, int(self.side == "+")])))


def jost_pairs(
    params: SchurParameters,
    nodes: np.ndarray,
    phi: np.ndarray,
    phis: np.ndarray,
    d: np.ndarray,
    f: np.ndarray,
):
    """Both scattering solutions at each grid point of ``nodes`` to order
    n, from (n+1, len(nodes)) tables of phi_k and phi*_k there and from D
    and F there (``szego.szego_boundary`` and ``_herglotz_at``), as a list
    of pairs.

    The dual polynomials come from a transfer pass of their own.  Any
    column of ``eval_grid_table`` serves as a column of phi, since it is
    bitwise the one-point pass.  An atom at any node (a non-finite F)
    raises OutOfRange for the whole call.
    """
    if not np.isfinite(f).all():
        angle = np.angle(nodes[~np.isfinite(f)][0])
        raise OutOfRange(f"evaluation node at angle {angle:.6g} carries an atom")
    d, f = d[:, None, None], f[:, None, None]
    psi, psis = eval_grid_table(dual_parameters(params), nodes, len(phi) - 1)
    base = np.stack([psi.T, -psis.T], axis=-1)
    poly = np.stack([phi.T, phis.T], axis=-1)
    plus = 0.5 / d * (base + f * poly)
    minus = -0.5 / np.conj(d) * (base - np.conj(f) * poly)
    return [
        (JostSolution(node, "+", p), JostSolution(node, "-", m))
        for node, p, m in zip(nodes.tolist(), plus, minus)
    ]


def _scalar_product(a, b) -> np.ndarray:
    """a * b elementwise, rounded as numpy rounds a scalar complex product:
    each real product alone, where the array multiply fuses them."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a complex (k, 2) array, bitwise:
    the same two real dot products, one stacked matmul each."""
    re, im = rows.real[:, None, :], rows.imag[:, None, :]
    squares = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    return np.sqrt(squares[:, 0, 0])


def jost_step_defects(params: SchurParameters, sol: JostSolution) -> np.ndarray:
    """One-step defects of a solution under the transfer recursion.

    For each n < min(sol.n_max, len(params)) the predicted next entry is

        ( (xi x_n - conj(a_n) y_n) / rho_n, (y_n - a_n xi x_n) / rho_n )

    and defect n is its distance from entry n + 1 relative to
    max(1, ||entry_n||); bitwise the per-step scalar form, whose products
    and norms ``_scalar_product`` and ``_row_norms`` round alike.
    """
    n_steps = min(sol.n_max, len(params))
    a, rho = params.values[:n_steps], params.rho[:n_steps]
    x, y = sol.entries[:n_steps].T
    first = _scalar_product(sol.xi, x) - _scalar_product(np.conj(a), y)
    second = y - _scalar_product(_scalar_product(a, sol.xi), x)
    pred = np.stack([first, second], axis=1) / rho[:, None]
    defects = _row_norms(sol.entries[1 : n_steps + 1] - pred)
    return defects / np.fmax(1.0, _row_norms(sol.entries[:n_steps]))

