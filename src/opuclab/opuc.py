"""Orthonormal polynomials on the circle from their parameter sequence.

The transfer matrix is the single source of truth for conventions: with
rho_n = sqrt(1 - |a_n|^2),

    (phi_{n+1}, phi*_{n+1}) = rho_n^{-1} (z phi_n - conj(a_n) phi*_n,
                                          phi*_n - a_n z phi_n),

starting from (1, 1).  The monic recursions, the two parameter-extraction
routes, and the CMV/Christoffel-Darboux formulas here are all written to
reproduce it, and their mutual agreement is a tested invariant.

Extraction routes
-----------------
* ``verblunsky_from_moments`` runs the monic recursion on Taylor
  coefficients with inner products read from the moment sequence.  Fine for
  tame measures; coefficient growth makes it ill-conditioned when the
  parameters do not decay.
* ``verblunsky_from_measure`` runs the same recursion on *values* at the
  nodes of ``CircleMeasure.quadrature()``, grid points and atoms alike
  (huge polynomial values are multiplied by tiny weights instead of
  cancelling symbolically).  It runs in complex128 and is redone in
  extended precision when its digit-loss estimate passes 4 digits; the
  transfer recursion runs in complex128.

Reconstruction
--------------
``weight_from_parameters`` samples 1/|phi_K|^2 on the N-th roots of unity.
It runs the transfer recursion above on the Taylor coefficients of phi_K
(multiplying by z shifts them one place) and evaluates phi_K at all N nodes
with one FFT, O(K^2 + N log N) instead of K steps at every node.  Its
relative error is about 10^(digit loss) * eps, the conditioning of phi_K
itself.  Everything else evaluates polynomials pointwise by the transfer
recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, PositivityLoss
from .measure import CircleMeasure, _as_boundary
from .schur import _SAFE_DIGIT_LOSS, ESCAPE_THRESHOLD, SchurParameters, digit_loss

# Depth cap of both parameter-extraction routes; desk scale.
N_MAX = 512

# Near-diagonal switch for the Christoffel-Darboux quotients.
_CD_DIAGONAL = 1e-8

# |phi| whose square is a normal finite double, so 1/|phi|^2 is positive and finite.
_MODULUS_RANGE = (math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max))


@dataclass(frozen=True)
class PolynomialPair:
    """Values (phi_n(z), phi_n*(z)) at one point."""

    n: int
    phi: complex
    phi_star: complex
    z: complex


@dataclass(frozen=True)
class MonicTable:
    """Monic polynomial workspace from the moment recursion.

    ``norms_sq[n]`` is the squared L^2(mu) norm of the degree-n monic
    polynomial, read off as the inner product of its reflection with 1.
    """

    norms_sq: np.ndarray
    params: SchurParameters


# -----------------------------------------------------------------------------
# Transfer-matrix evaluation
# -----------------------------------------------------------------------------
def _transfer_steps(params: SchurParameters, zs: np.ndarray, n_max: int):
    """Yield (phi_k, phi*_k) over an array of points for k = 0..n_max.

    Rows are complex128 at every order, so a table of order n is a prefix
    of any deeper one; each step makes fresh arrays, so a caller may keep
    any row it is handed.
    """
    if n_max > len(params):
        raise OutOfRange(
            f"n = {n_max} exceeds stored parameter count {len(params)}"
        )
    zs = np.asarray(zs, dtype=complex)
    a = params.values
    # numpy divides x by r + 0i as x * (1/r), so multiplying by the
    # reciprocal gives the same values without two divisions per point
    inv_rho = 1.0 / params.rho
    phi = np.ones_like(zs)
    phis = np.ones_like(zs)
    yield phi, phis
    for k in range(n_max):
        zphi = zs * phi
        phi, phis = (zphi - np.conj(a[k]) * phis) * inv_rho[k], (
            phis - a[k] * zphi
        ) * inv_rho[k]
        yield phi, phis


def _run_transfer(params: SchurParameters, zs: np.ndarray, n_max: int, keep_all: bool):
    """Apply n_max transfer steps over an array of points.

    Returns (phi, phi_star) as (n_max+1, len(zs)) tables when keep_all,
    else the final row pair.
    """
    if keep_all:
        tab = np.empty((n_max + 1, len(zs)), dtype=complex)
        tabs = np.empty((n_max + 1, len(zs)), dtype=complex)
    for k, (phi, phis) in enumerate(_transfer_steps(params, zs, n_max)):
        if keep_all:
            tab[k] = phi
            tabs[k] = phis
    if keep_all:
        return tab, tabs
    return phi, phis


def eval_pair(params: SchurParameters, z: complex, n: int) -> PolynomialPair:
    """(phi_n(z), phi_n*(z)) by n transfer-matrix applications."""
    phi, phis = _run_transfer(params, np.array([complex(z)]), n, keep_all=False)
    return PolynomialPair(n, complex(phi[0]), complex(phis[0]), complex(z))


def eval_table(params: SchurParameters, z: complex, n_max: int):
    """All orders 0..n_max at one point; returns (phi, phi_star) arrays."""
    tab, tabs = _run_transfer(params, np.array([complex(z)]), n_max, keep_all=True)
    return tab[:, 0], tabs[:, 0]


def eval_grid_table(params: SchurParameters, zs: np.ndarray, n_max: int):
    """All orders 0..n_max over an array of points; (n_max+1, len) tables."""
    return _run_transfer(params, zs, n_max, keep_all=True)


def eval_grid_pair(params: SchurParameters, zs: np.ndarray, n: int):
    """Order-n values over an array of points, O(len) memory."""
    return _run_transfer(params, zs, n, keep_all=False)


# -----------------------------------------------------------------------------
# CMV basis
# -----------------------------------------------------------------------------
def _chi_rows(params: SchurParameters, xis: np.ndarray, n_max: int):
    """Yield chi_k over boundary points for k = 0..n_max.

    chi_{2k} = conj(xi)^k phi*_{2k}, chi_{2k+1} = conj(xi)^k phi_{2k+1}; the
    phase conj(xi)^k is a running product.
    """
    step = np.conj(np.asarray(xis, dtype=complex))
    phase = np.ones_like(step)
    for k, (phi, phis) in enumerate(_transfer_steps(params, xis, n_max)):
        if k % 2:
            yield phase * phi
        else:
            if k:
                phase = phase * step
            yield phase * phis


def chi(params: SchurParameters, xi: complex, n: int) -> complex:
    """CMV basis value chi_n(xi) on the boundary."""
    xi = _as_boundary(xi)
    pair = eval_pair(params, xi, n)
    k = n // 2
    pref = np.conj(xi) ** k
    return complex(pref * (pair.phi_star if n % 2 == 0 else pair.phi))


def chi_table(params: SchurParameters, xi: complex, n_max: int) -> np.ndarray:
    """chi_0(xi) .. chi_{n_max}(xi) at one boundary point."""
    xi = _as_boundary(xi)
    rows = _chi_rows(params, np.array([xi]), n_max)
    return np.array([row[0] for row in rows], dtype=complex)


def chi_sums(
    params: SchurParameters, xis: np.ndarray, values: np.ndarray, n_max: int
) -> np.ndarray:
    """sum_j values[..., j] conj(chi_k(xis[j])) for k = 0..n_max.

    One streamed pass of the transfer recursion: no (n_max+1, len(xis))
    table is formed, so memory is O(values.size) plus a few rows.  Returns
    shape values.shape[:-1] + (n_max + 1,).  Each function gets its own
    dot product, so stacking functions does not change their sums.
    """
    values = np.asarray(values, dtype=complex)
    funcs = values.reshape(-1, values.shape[-1])
    out = np.empty((len(funcs), n_max + 1), dtype=complex)
    for k, row in enumerate(_chi_rows(params, xis, n_max)):
        row = np.conj(row)
        out[:, k] = [f @ row for f in funcs]
    return out.reshape(values.shape[:-1] + (n_max + 1,))


# -----------------------------------------------------------------------------
# Christoffel-Darboux kernels
# -----------------------------------------------------------------------------
def cd_kernel_sum(params: SchurParameters, xi: complex, z: complex, n: int) -> complex:
    """Direct reproducing-kernel sum over polynomial orders 0..n."""
    pxi, _ = eval_table(params, xi, n)
    pz, _ = eval_table(params, z, n)
    return complex(np.sum(np.conj(pxi) * pz))


def cd_kernel_poly(params: SchurParameters, xi: complex, z: complex, n: int) -> complex:
    """Polynomial-space kernel sum_{k<=n} conj(phi_k(xi)) phi_k(z).

    Evaluated through the two-term quotient

        (phi*_{n+1}(z) conj(phi*_{n+1}(xi)) - phi_{n+1}(z) conj(phi_{n+1}(xi)))
        / (1 - conj(xi) z),

    falling back to direct summation when the denominator degenerates.
    """
    xi = complex(xi)
    z = complex(z)
    den = 1.0 - np.conj(xi) * z
    if abs(den) < _CD_DIAGONAL:
        return cd_kernel_sum(params, xi, z, n)
    px = eval_pair(params, xi, n + 1)
    pz = eval_pair(params, z, n + 1)
    num = pz.phi_star * np.conj(px.phi_star) - pz.phi * np.conj(px.phi)
    return complex(num / den)


def cd_kernel_cmv(params: SchurParameters, xi: complex, z: complex, n: int) -> complex:
    """Laurent-space kernel sum_{k<=n} conj(chi_k(xi)) chi_k(z), |xi|=|z|=1.

    Two-term form with a parity split:

        n even: (z conj(chi_{n+1}(z) xi) chi_{n+1}(xi)
                 - chi_{n+1}(z) conj(chi_{n+1}(xi))) / (1 - conj(xi) z)
        n odd:  (z chi_{n+1}(z) conj(xi chi_{n+1}(xi))
                 - z conj(chi_{n+1}(z) xi) chi_{n+1}(xi)) / (1 - conj(xi) z)

    and equals (xi conj(z))^floor(n/2) times the polynomial kernel there.
    """
    xi = _as_boundary(xi)
    z = _as_boundary(z)
    den = 1.0 - np.conj(xi) * z
    if abs(den) < _CD_DIAGONAL:
        cx = chi_table(params, xi, n)
        cz = cx if z == xi else chi_table(params, z, n)
        return complex(np.sum(np.conj(cx) * cz))
    cx = chi(params, xi, n + 1)
    cz = chi(params, z, n + 1)
    if n % 2 == 0:
        num = z * np.conj(cz * xi) * cx - cz * np.conj(cx)
    else:
        num = z * cz * np.conj(xi * cx) - z * np.conj(cz * xi) * cx
    return complex(num / den)


# -----------------------------------------------------------------------------
# Dual family and truncated measures
# -----------------------------------------------------------------------------
def dual_parameters(params: SchurParameters) -> SchurParameters:
    """Parameters of the dual measure (Schur function negated): {-a_n}."""
    return SchurParameters(-params.values)


def weight_from_parameters(params: SchurParameters, grid_size: int) -> np.ndarray:
    """Density grid of the measure with parameters (a_0..a_{K-1}, 0, 0, ...).

    Such a truncation has the rational density 1/|phi_K|^2; sampling it is
    the reconstruction route for parameter-first families.

    The transfer recursion runs on the K+1 Taylor coefficients of phi_K
    (z is a shift by one place), and one length-N FFT of them gives phi_K
    at the N-th roots of unity.  Coefficients past degree N-1 fold onto
    degree k mod N, which is exact on the grid because xi^N = 1 there.
    Raises PositivityLoss at a node where |phi_K|^2 underflows to 0 or
    overflows, so that 1/|phi_K|^2 would not be a positive double.
    """
    k_cut = len(params)
    a = params.values
    inv_rho = 1.0 / params.rho
    phi = np.zeros(k_cut + 1, dtype=complex)
    phi[0] = 1.0
    phis = phi.copy()
    for k in range(k_cut):
        # z phi_k; phi_k has degree k < k_cut, so nothing is shifted out
        zphi = np.concatenate(([0.0], phi[:-1]))
        phi, phis = (zphi - np.conj(a[k]) * phis) * inv_rho[k], (
            phis - a[k] * zphi
        ) * inv_rho[k]
    folded = np.pad(phi, (0, -len(phi) % grid_size))
    coeffs = folded.reshape(-1, grid_size).sum(axis=0)
    modulus = np.abs(grid_size * np.fft.ifft(coeffs))
    in_range = (modulus > _MODULUS_RANGE[0]) & (modulus < _MODULUS_RANGE[1])
    if not np.all(in_range):
        node = int(np.argmin(in_range))
        raise PositivityLoss(
            f"|phi_{k_cut}| = {modulus[node]:.3g} at grid node {node} of "
            f"{grid_size}: the density 1/|phi_K|^2 is not a positive double there"
        )
    return 1.0 / modulus**2


# -----------------------------------------------------------------------------
# Parameter extraction, route A: moment coefficients
# -----------------------------------------------------------------------------
def monic_from_moments(moments: np.ndarray, n_max: int) -> MonicTable:
    """Monic recursion on Taylor coefficients with moment inner products.

    <z^j, z^k> = c_{k-j} with c_{-k} = conj(c_k); the parameter is read from
    conj(a_n) = <z Phi_n, 1> / <Phi_n*, 1>, and <Phi_n*, 1> doubles as the
    running squared norm.
    """
    # Worked in extended precision: the recursion loses a digit per few
    # steps on slowly decaying parameters, and the series route it is
    # checked against escalates to exact arithmetic, so the gap between
    # the two is set by the roundoff here.  In double, geronimus(0.6) has a
    # depth-24 gap of 2.9e-9 (test bound 1e-9) and norm_telescoping 4.2e-11.
    c = np.asarray(moments, dtype=np.clongdouble)
    if n_max > N_MAX:
        raise OutOfRange(f"n_max = {n_max} beyond the table cap {N_MAX}")
    if len(c) < n_max + 1:
        raise OutOfRange(
            f"{len(c)} moments cannot support n_max = {n_max} (need n_max + 1)"
        )
    cbar = np.conj(c)
    phi = np.array([1.0 + 0j], dtype=np.clongdouble)
    phis = np.array([1.0 + 0j], dtype=np.clongdouble)
    norms = np.zeros(n_max + 1)
    a_out = np.zeros(n_max, dtype=complex)
    for n in range(n_max + 1):
        den = np.dot(phis, cbar[: n + 1])
        if den.real <= 0.0 or abs(den.imag) > 1e-8 * max(den.real, 1.0):
            raise PositivityLoss(
                f"norm inner product {den!r} at degree {n}; "
                "moment sequence is not positive definite"
            )
        norms[n] = den.real
        if n == n_max:
            break
        num = np.dot(phi, cbar[1 : n + 2])
        conj_a = num / den
        a = np.conj(conj_a)
        if abs(a) >= ESCAPE_THRESHOLD:
            raise PositivityLoss(
                f"|a_{n}| = {abs(a):.15g} at the escape threshold; "
                "input appears finitely supported"
            )
        a_out[n] = a
        shifted = np.concatenate([[0.0], phi])
        phi = shifted - conj_a * np.concatenate([phis, [0.0]])
        phis = np.concatenate([phis, [0.0]]) - a * shifted
    return MonicTable(norms, SchurParameters(a_out))


def verblunsky_from_moments(moments: np.ndarray, n_max: int) -> SchurParameters:
    """a_0..a_{n_max-1} from the moment-coefficient recursion."""
    return monic_from_moments(moments, n_max).params


# -----------------------------------------------------------------------------
# Parameter extraction, route A': values at the quadrature nodes
# -----------------------------------------------------------------------------
def _value_recursion(xi: np.ndarray, q: np.ndarray, n_max: int, max_loss: float):
    """The monic recursion on values at nodes ``xi`` with weights ``q``.

    Runs in the dtype of the arrays it gets.  Returns a_0..a_{n_max-1} as
    complex128, or None once the digit-loss estimate of the parameters
    found so far passes ``max_loss``; raises PositivityLoss when the norm
    vanishes or a parameter reaches the escape threshold.
    """
    phi = np.ones_like(xi)
    phis = np.ones_like(xi)
    values = np.zeros(n_max, dtype=complex)
    loss = 0.0
    for n in range(n_max):
        zphi = xi * phi
        num = np.sum(zphi * q)
        den = np.sum(phis * q)
        if abs(den) < 1e-300:
            raise PositivityLoss(f"vanishing norm inner product at degree {n}")
        a = np.conj(num / den)
        if abs(a) >= ESCAPE_THRESHOLD:
            raise PositivityLoss(
                f"|a_{n}| = {abs(complex(a)):.15g} at the escape threshold; "
                "discrete measure appears degenerate at this depth"
            )
        loss += digit_loss(abs(a))
        if loss > max_loss:
            return None
        values[n] = complex(a)
        phi, phis = zphi - np.conj(a) * phis, phis - a * zphi
    return values


def verblunsky_from_measure(mu: CircleMeasure, n_max: int) -> SchurParameters:
    """a_0..a_{n_max-1} by the monic recursion on values at the nodes.

    The measure is the discrete measure of ``mu.quadrature()``, grid nodes
    and atoms alike, so num = sum q z phi and den = sum q phi* are its
    inner products and atoms need no separate update.  In value space the
    huge polynomial values over low-weight regions are damped by the weight
    instead of cancelling in coefficient space.

    The recursion runs in double while the parameters' digit-loss estimate
    stays within the Schur cascade's ``_SAFE_DIGIT_LOSS``; otherwise, or
    when the double pass escapes or loses the norm, it is redone in
    extended precision, which alone decides whether to raise.
    """
    if n_max > N_MAX:
        raise OutOfRange(f"n_max = {n_max} beyond the table cap {N_MAX}")
    xi, q = mu.quadrature()
    try:
        values = _value_recursion(xi, q, n_max, _SAFE_DIGIT_LOSS)
    except PositivityLoss:
        values = None
    if values is None:
        # Extended precision: in double, geronimus(0.6) gram_orthonormality
        # goes from 8.7e-14 to 2.8e-10 and constant_deviation_zero to 1.4e-14.
        values = _value_recursion(
            xi.astype(np.clongdouble), q.astype(np.longdouble), n_max, math.inf
        )
    return SchurParameters(values)
